package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"resilientft/internal/mgmt"
	"resilientft/internal/transport"
)

// daemon is one resilientd process.
type daemon struct {
	addr    string
	peer    string
	cmd     *exec.Cmd
	logPath string
	started time.Time
}

// pair is a master/slave couple of resilientd processes on loopback,
// plus the registry that guarantees none of them outlives the benchmark.
type pair struct {
	bin    string
	shards int
	d      [2]*daemon
	// master indexes the daemon currently expected to be master; swaps
	// counts how often it turned out to be the other one without a kill.
	master int
	swaps  int
}

// live tracks every daemon process started and not yet reaped, so that
// exit, panic and SIGINT paths can kill them all.
var live struct {
	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

func killAllDaemons() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for pid, cmd := range live.procs {
		// Negative pid: the daemon's own process group.
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		_, _ = cmd.Process.Wait()
		delete(live.procs, pid)
	}
}

// freePorts picks n unused loopback ports below the kernel's ephemeral
// range. A port from bind(0) can be handed out again — as the source port
// of someone's outgoing connection, or to the next bind(0) — in the
// moment between this probe releasing it and the daemon binding it;
// ports outside ip_local_port_range are only ever taken by name.
func freePorts(n int) ([]string, error) {
	low := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		var lo, hi int
		if _, err := fmt.Sscan(string(data), &lo, &hi); err == nil && lo > 12000 {
			low = lo
		}
	}
	const first = 10000
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n && tries < 200; tries++ {
		addr := fmt.Sprintf("127.0.0.1:%d", first+rand.Intn(low-first))
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken; try another
		}
		l.Close()
		if !slices.Contains(addrs, addr) {
			addrs = append(addrs, addr)
		}
	}
	if len(addrs) < n {
		return nil, fmt.Errorf("no free loopback port between %d and %d", first, low)
	}
	return addrs, nil
}

// startDaemon execs one resilientd in its own process group with stdout
// and stderr captured to a log file.
func (p *pair) startDaemon(i int, role string) error {
	d := p.d[i]
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(p.bin,
		"-listen", d.addr, "-peer", d.peer, "-role", role, "-ftm", "pbr",
		"-shards", strconv.Itoa(p.shards),
		"-heartbeat", "50ms", "-suspect", "250ms")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, and the kernel kills it if the benchmark dies
	// without running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start resilientd: %w", err)
	}
	d.cmd = cmd
	live.mu.Lock()
	if live.procs == nil {
		live.procs = make(map[int]*exec.Cmd)
	}
	live.procs[cmd.Process.Pid] = cmd
	live.mu.Unlock()
	return nil
}

// kill SIGKILLs daemon i and reaps it. It returns when the signal was
// sent: reaping can take a while on a busy box, and what follows a kill
// is timed from the signal.
func (p *pair) kill(i int) time.Time {
	d := p.d[i]
	if d.cmd == nil {
		return time.Now()
	}
	pid := d.cmd.Process.Pid
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	sent := time.Now()
	_, _ = d.cmd.Process.Wait()
	live.mu.Lock()
	delete(live.procs, pid)
	live.mu.Unlock()
	d.cmd = nil
	return sent
}

func (p *pair) stop() {
	p.kill(0)
	p.kill(1)
}

// newPair picks fresh ports and boots master then slave. It returns once
// both processes exist; readiness is probed separately so that set-up
// time can be measured to the first acknowledged request.
func newPair(bin, logDir string, shards int, tag string) (*pair, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	p := &pair{bin: bin, shards: shards}
	for i := range p.d {
		p.d[i] = &daemon{
			addr:    ports[i],
			peer:    ports[1-i],
			logPath: filepath.Join(logDir, fmt.Sprintf("%s-%d.log", tag, i)),
		}
		_ = os.Remove(p.d[i].logPath)
	}
	if err := p.startDaemon(0, "master"); err != nil {
		return nil, err
	}
	if err := p.startDaemon(1, "slave"); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *pair) addrs() []transport.Address {
	return []transport.Address{transport.Address(p.d[0].addr), transport.Address(p.d[1].addr)}
}

// roles reports the role of every replica group daemon i hosts.
func (p *pair) roles(ctx context.Context, ep transport.Endpoint, i int) ([]string, error) {
	target := transport.Address(p.d[i].addr)
	if p.shards <= 1 {
		st, err := mgmt.QueryStatus(ctx, ep, target, "")
		if err != nil {
			return nil, err
		}
		return []string{st.Role}, nil
	}
	rows, err := mgmt.QueryShards(ctx, ep, target)
	if err != nil {
		return nil, err
	}
	if len(rows) != p.shards {
		return nil, fmt.Errorf("daemon %s lists %d shards, want %d", target, len(rows), p.shards)
	}
	out := make([]string, len(rows))
	for k, r := range rows {
		out[k] = r.Role
	}
	return out, nil
}

// Poll intervals of awaitRole. Failover is polled every 5 ms, which is
// fine against the 250 ms it takes; a boot takes about 10 ms, so it is
// polled every millisecond, or set-up time would be quantised into 5 ms
// steps.
const (
	pollBoot     = time.Millisecond
	pollFailover = 5 * time.Millisecond
)

// awaitRole polls daemon i until every group it hosts reports role, and
// returns when that was first seen.
func (p *pair) awaitRole(ctx context.Context, ep transport.Endpoint, i int, role string, every, limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	var lastErr error
	for time.Now().Before(deadline) {
		if p.d[i].cmd != nil && exited(p.d[i].cmd) {
			return time.Time{}, fmt.Errorf("daemon %s exited while waiting for role %s", p.d[i].addr, role)
		}
		pollCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		roles, err := p.roles(pollCtx, ep, i)
		cancel()
		if err == nil {
			if allAre(roles, role) {
				return time.Now(), nil
			}
			lastErr = fmt.Errorf("roles %v", roles)
		} else {
			lastErr = err
		}
		time.Sleep(every)
	}
	return time.Time{}, fmt.Errorf("daemon %s did not report role %s within %v: %v", p.d[i].addr, role, limit, lastErr)
}

// exited reports whether the process has already terminated, without
// reaping it.
func exited(cmd *exec.Cmd) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid))
	if err != nil {
		return true
	}
	// Field 3, after the parenthesised command name, is the state.
	if i := bytes.LastIndexByte(data, ')'); i >= 0 && i+2 < len(data) {
		return data[i+2] == 'Z' || data[i+2] == 'X'
	}
	return false
}

// logs returns the tail of both daemons' captured output, for failure
// reports.
func (p *pair) logs() string {
	var b strings.Builder
	for _, d := range p.d {
		data, err := os.ReadFile(d.logPath)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > 40 {
			lines = lines[len(lines)-40:]
		}
		fmt.Fprintf(&b, "--- %s (%s)\n%s\n", d.addr, d.logPath, strings.Join(lines, "\n"))
	}
	return b.String()
}

// procSample is one reading of a process's cumulative resource use.
type procSample struct {
	cpu   time.Duration // user + system
	ctxsw int64         // voluntary + involuntary context switches
	rssKB int64         // VmRSS
	hwmKB int64         // VmHWM, the peak resident set
}

// clockTick is the kernel's USER_HZ; 100 on every Linux this runs on.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(stat[i+1:]))
	// After the command name: state is fields[0], utime fields[11],
	// stime fields[12].
	if len(fields) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	s.cpu = time.Duration(ut+st) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.rssKB = statusField(status, "VmRSS")
	s.hwmKB = statusField(status, "VmHWM")
	// Context switches are kept per thread: sum over the process's tasks.
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		s.ctxsw += statusField(ts, "voluntary_ctxt_switches") + statusField(ts, "nonvoluntary_ctxt_switches")
	}
	return s, nil
}

// statusField returns the first number on the line "key: ..." of a
// /proc status file, 0 when absent.
func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		k, rest, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			return v
		}
	}
	return 0
}

// selfCPU returns this process's cumulative user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// strayDaemons lists processes still running the benchmark's resilientd
// binary: the final check that no daemon outlives the run.
func strayDaemons(bin string) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		if strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}
