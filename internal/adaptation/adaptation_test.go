package adaptation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/faultinject"
	"resilientft/internal/fscript"
	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
)

func fastConfig(ftmID core.ID) ftm.SystemConfig {
	return ftm.SystemConfig{
		System:            "calc",
		FTM:               ftmID,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    60 * time.Millisecond,
	}
}

func newSystem(t *testing.T, ftmID core.ID) *ftm.System {
	t.Helper()
	s, err := ftm.NewSystem(context.Background(), fastConfig(ftmID))
	if err != nil {
		t.Fatalf("NewSystem(%s): %v", ftmID, err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func invoke(t *testing.T, c *rpc.Client, op string, arg int64) int64 {
	t.Helper()
	resp, err := c.Invoke(context.Background(), op, ftm.EncodeArg(arg))
	if err != nil {
		t.Fatalf("Invoke(%s, %d): %v", op, arg, err)
	}
	v, err := ftm.DecodeResult(resp.Payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestBuildPackageDiffSizes(t *testing.T) {
	cases := []struct {
		from, to core.ID
		role     core.Role
		want     int
	}{
		{core.LFR, core.LFRTR, core.RoleMaster, 1},
		{core.PBR, core.LFR, core.RoleMaster, 2},
		{core.PBR, core.LFRTR, core.RoleMaster, 3},
		{core.PBR, core.PBRTR, core.RoleMaster, 1},
		{core.PBR, core.LFR, core.RoleSlave, 3}, // backup scheme shares nothing with follower's
	}
	for _, tc := range cases {
		pkg, err := BuildPackage("calc", tc.from, tc.to, tc.role)
		if err != nil {
			t.Fatalf("BuildPackage(%s->%s/%s): %v", tc.from, tc.to, tc.role, err)
		}
		if len(pkg.Replaced) != tc.want {
			t.Errorf("%s->%s/%s replaced %v, want %d slots", tc.from, tc.to, tc.role, pkg.Replaced, tc.want)
		}
		if len(pkg.Env.Definitions) != tc.want {
			t.Errorf("%s->%s/%s ships %d definitions, want %d", tc.from, tc.to, tc.role, len(pkg.Env.Definitions), tc.want)
		}
		if len(pkg.Bundles()) != tc.want {
			t.Errorf("%s->%s/%s bundles = %d", tc.from, tc.to, tc.role, len(pkg.Bundles()))
		}
		text := pkg.Script.String()
		for _, slot := range pkg.Replaced {
			if !strings.Contains(text, "remove calc/"+slot) {
				t.Errorf("script misses removal of %s:\n%s", slot, text)
			}
		}
	}
}

func TestBuildPackageRejectsTopologyChange(t *testing.T) {
	if _, err := BuildPackage("calc", core.PBR, core.TR, core.RoleMaster); err == nil {
		t.Fatal("PBR->TR (2 hosts -> 1 host) accepted")
	}
}

func TestTransitionPBRToLFR(t *testing.T) {
	s := newSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 10)

	engine := NewEngine(nil)
	report, err := engine.TransitionSystem(context.Background(), s, core.LFR)
	if err != nil {
		t.Fatalf("TransitionSystem: %v", err)
	}
	if !report.Succeeded() {
		t.Fatalf("report not successful: %+v", report)
	}
	if len(report.Replicas) != 2 {
		t.Fatalf("replicas in report = %d", len(report.Replicas))
	}
	for _, rep := range report.Replicas {
		if rep.Steps.Deploy <= 0 || rep.Steps.Script <= 0 || rep.Steps.Remove <= 0 {
			t.Errorf("replica %s has unmeasured steps: %+v", rep.Host, rep.Steps)
		}
	}

	// The system still serves, from the same state.
	if got := invoke(t, c, "add:x", 5); got != 15 {
		t.Fatalf("post-transition add = %d", got)
	}
	// Both replicas now run LFR and the follower computes requests.
	if s.Master().FTM() != core.LFR || s.Slave().FTM() != core.LFR {
		t.Fatal("FTM bookkeeping not updated")
	}
	followerApp := s.Slave().App().(*ftm.Calculator)
	waitUntil(t, 2*time.Second, func() bool {
		return followerApp.StateManager() != nil && followerValue(followerApp) == 15
	}, "follower does not compute after PBR->LFR transition")
}

func followerValue(c *ftm.Calculator) int64 {
	data, err := c.StateManager().CaptureState()
	if err != nil {
		return -1
	}
	clone := ftm.NewCalculator()
	if err := clone.StateManager().RestoreState(data); err != nil {
		return -1
	}
	v, _, _ := clone.Process("get:x", 0)
	return v
}

func TestTransitionChainAcrossDeployableSet(t *testing.T) {
	s := newSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(nil)
	chain := []core.ID{core.PBRTR, core.LFRTR, core.ALFR, core.APBR, core.PBR, core.LFR}
	value := int64(0)
	invoke(t, c, "set:x", 0)
	for _, next := range chain {
		report, err := engine.TransitionSystem(context.Background(), s, next)
		if err != nil {
			t.Fatalf("transition to %s: %v", next, err)
		}
		if !report.Succeeded() {
			t.Fatalf("transition to %s failed: %+v", next, report)
		}
		value++
		if got := invoke(t, c, "add:x", 1); got != value {
			t.Fatalf("after transition to %s: add = %d, want %d", next, got, value)
		}
		scheme, err := s.Master().CurrentScheme()
		if err != nil {
			t.Fatal(err)
		}
		if scheme != core.MustLookup(next).MasterScheme {
			t.Fatalf("after transition to %s: live scheme %+v", next, scheme)
		}
	}
}

func TestTransitionUnderLoadLosesNothing(t *testing.T) {
	s := newSystem(t, core.PBR)
	engine := NewEngine(nil)

	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 0)

	// A writer increments x continuously while the transition runs;
	// every accepted increment must be reflected exactly once.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	accepted := int64(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			resp, err := c.Invoke(ctx, "add:x", ftm.EncodeArg(1))
			cancel()
			if err == nil && resp.Status == rpc.StatusOK {
				accepted++
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	if _, err := engine.TransitionSystem(context.Background(), s, core.LFR); err != nil {
		t.Fatalf("TransitionSystem under load: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if accepted == 0 {
		t.Fatal("no requests accepted around the transition")
	}
	if got := invoke(t, c, "get:x", 0); got != accepted {
		t.Fatalf("x = %d but %d increments were acknowledged", got, accepted)
	}
}

func TestScriptFailureEnforcesFailSilence(t *testing.T) {
	s := newSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 33)

	repo := NewRepository()
	// Sabotage the master-role package: its script fails mid-way.
	good, err := BuildPackage("calc", core.PBR, core.LFR, core.RoleMaster)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Script = fscript.MustParse("stop calc/syncBefore\nfail \"injected transition fault\"")
	repo.Upload("calc", &bad)

	engine := NewEngine(repo)
	oldMaster := s.Master()
	report, err := engine.TransitionSystem(context.Background(), s, core.LFR)
	if err == nil {
		t.Fatal("sabotaged transition reported success")
	}
	// The master was killed (fail-silent); the slave transitioned.
	var masterRep, slaveRep *ReplicaReport
	for i := range report.Replicas {
		switch report.Replicas[i].Role {
		case core.RoleMaster:
			masterRep = &report.Replicas[i]
		case core.RoleSlave:
			slaveRep = &report.Replicas[i]
		}
	}
	if masterRep == nil || !masterRep.Killed {
		t.Fatalf("master not killed: %+v", report.Replicas)
	}
	if slaveRep == nil || slaveRep.Err != nil {
		t.Fatalf("slave failed too: %+v", slaveRep)
	}
	if !oldMaster.Host().Crashed() {
		t.Fatal("killed master's host still alive")
	}

	// The reconfigured slave detects the silence and takes over in the
	// NEW configuration; clients keep being served.
	waitUntil(t, 5*time.Second, func() bool {
		m := s.Master()
		return m != nil && m != oldMaster
	}, "slave never took over after fail-silent master")
	if got := invoke(t, c, "get:x", 0); got != 33 {
		t.Fatalf("state after fail-silent takeover = %d, want 33", got)
	}
	if s.Master().FTM() != core.LFR {
		t.Fatalf("survivor runs %s, want lfr", s.Master().FTM())
	}

	// Recovery of adaptation (§5.3): the killed replica restarts and
	// rejoins in the configuration committed by its counterpart.
	idx := -1
	for i, r := range s.Replicas() {
		if r == oldMaster {
			idx = i
		}
	}
	rejoined, err := s.RestartReplica(context.Background(), idx)
	if err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	if rejoined.FTM() != core.LFR {
		t.Fatalf("rejoined replica runs %s, want lfr (from stable storage)", rejoined.FTM())
	}
}

func TestTransitionedFTMActuallyMasksFaults(t *testing.T) {
	// Behavioural validation of a transition: after LFR -> LFR⊕TR
	// (triggered in the paper by fault-model hardening), a transient
	// value fault is masked — before it, it is not.
	inj := faultinject.NewValueInjector(21)
	first := true
	cfg := fastConfig(core.LFR)
	cfg.AppFactory = func() ftm.Application {
		c := ftm.NewCalculator()
		if first {
			c.SetInjector(inj)
			first = false
		}
		return c
	}
	s, err := ftm.NewSystem(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "set:x", 10)
	inj.InjectTransient(1)
	if got := invoke(t, c, "add:x", 1); got == 11 {
		t.Fatal("plain LFR masked a value fault; injection broken")
	}
	invoke(t, c, "set:x", 10)

	engine := NewEngine(nil)
	if _, err := engine.TransitionSystem(context.Background(), s, core.LFRTR); err != nil {
		t.Fatalf("TransitionSystem: %v", err)
	}
	inj.InjectTransient(1)
	if got := invoke(t, c, "add:x", 1); got != 11 {
		t.Fatalf("LFR⊕TR result under fault = %d, want 11", got)
	}
}

func TestRepositoryUploadPrecedenceAndBuilds(t *testing.T) {
	repo := NewRepository()
	pkg, err := repo.Get("calc", "calc", core.PBR, core.LFR, core.RoleMaster)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Builds() != 1 {
		t.Fatalf("Builds = %d, want 1", repo.Builds())
	}
	marked := *pkg
	marked.Replaced = []string{"marker"}
	repo.Upload("calc", &marked)
	got, err := repo.Get("calc", "calc", core.PBR, core.LFR, core.RoleMaster)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Replaced) != 1 || got.Replaced[0] != "marker" {
		t.Fatal("uploaded package not preferred")
	}
	if repo.Builds() != 1 {
		t.Fatalf("Builds after upload hit = %d, want 1", repo.Builds())
	}
	// Another system's lookup does not see the upload.
	other, err := repo.Get("other", "other", core.PBR, core.LFR, core.RoleMaster)
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Replaced) == 1 && other.Replaced[0] == "marker" {
		t.Fatal("upload leaked across systems")
	}
}

func TestNoOpTransition(t *testing.T) {
	s := newSystem(t, core.PBR)
	engine := NewEngine(nil)
	report, err := engine.TransitionSystem(context.Background(), s, core.PBR)
	if err != nil {
		t.Fatalf("no-op transition: %v", err)
	}
	for _, rep := range report.Replicas {
		if len(rep.Replaced) != 0 {
			t.Fatalf("no-op replaced %v", rep.Replaced)
		}
	}
}

func TestAtMostOnceAcrossTransition(t *testing.T) {
	s := newSystem(t, core.PBR)
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke(t, c, "add:x", 7) // seq 1 executed, x = 7
	engine := NewEngine(nil)
	if _, err := engine.TransitionSystem(context.Background(), s, core.LFR); err != nil {
		t.Fatal(err)
	}
	// The same request identity redelivered after the transition must
	// replay from the reply log, not re-execute.
	resp, err := c.Redeliver(context.Background(), 1, "add:x", ftm.EncodeArg(7))
	if err != nil {
		t.Fatalf("Redeliver: %v", err)
	}
	if !resp.Replayed {
		t.Fatal("redelivered request re-executed after transition")
	}
	if got := invoke(t, c, "get:x", 0); got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
}

func TestReportMaxSteps(t *testing.T) {
	r := &Report{Replicas: []ReplicaReport{
		{Steps: StepTimings{Deploy: 10, Script: 5, Remove: 5}},
		{Steps: StepTimings{Deploy: 30, Script: 10, Remove: 10}},
	}}
	if got := r.MaxSteps().Total(); got != 50 {
		t.Fatalf("MaxSteps total = %v", got)
	}
	if (&Report{}).Succeeded() {
		t.Fatal("empty report succeeded")
	}
}

func ExampleEngine_transition() {
	s, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{System: "demo", FTM: core.PBR})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Shutdown()
	engine := NewEngine(nil)
	report, err := engine.TransitionSystem(context.Background(), s, core.LFR)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("transitioned %s -> %s on %d replicas\n", report.From, report.To, len(report.Replicas))
	// Output: transitioned pbr -> lfr on 2 replicas
}

func TestTransitionSystemAppliesToEveryMember(t *testing.T) {
	c := newSystem(t, core.PBR)
	client, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Invoke(context.Background(), "set:x", ftm.EncodeArg(3))
	if err != nil || resp.Status != rpc.StatusOK {
		t.Fatalf("set: %v / %v", err, resp.Status)
	}

	engine := NewEngine(nil)
	report, err := engine.TransitionSystem(context.Background(), c, core.LFR)
	if err != nil {
		t.Fatalf("TransitionSystem: %v", err)
	}
	if len(report.Replicas) != 2 || !report.Succeeded() {
		t.Fatalf("report = %+v", report)
	}
	for _, r := range c.Replicas() {
		if r.FTM() != core.LFR {
			t.Fatalf("%s runs %s", r.Host().Name(), r.FTM())
		}
		scheme, err := r.CurrentScheme()
		if err != nil {
			t.Fatal(err)
		}
		if scheme != core.MustLookup(core.LFR).Scheme(r.Role()) {
			t.Fatalf("%s scheme %+v", r.Host().Name(), scheme)
		}
	}
	// The transitioned pair still serves and the follower computes.
	if got := invoke(t, client, "add:x", 4); got != 7 {
		t.Fatalf("post-transition add = %d", got)
	}
	follower := c.Slave().App().(*ftm.Calculator)
	waitUntil(t, 2*time.Second, func() bool { return followerValue(follower) == 7 },
		"follower does not compute after the pair's transition")
}
