// Command ftmctl inspects and drives resilientd replicas over their
// management plane.
//
//	ftmctl -target 127.0.0.1:7001 status
//	ftmctl -target 127.0.0.1:7001 shards
//	ftmctl -target 127.0.0.1:7001 -group 1 status
//	ftmctl -target 127.0.0.1:7001 arch
//	ftmctl -target 127.0.0.1:7001 -peer 127.0.0.1:7002 transition lfr
//	ftmctl -target 127.0.0.1:7001 invoke add:x 5
//	ftmctl -target 127.0.0.1:7001 health
//	ftmctl -target 127.0.0.1:7001 slo
//	ftmctl -target 127.0.0.1:7001 metrics
//	ftmctl -target 127.0.0.1:7001 events
//	ftmctl -target 127.0.0.1:7001 trace <16-hex-id>
//	ftmctl -target 127.0.0.1:7001 blackbox
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/mgmt"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		target = flag.String("target", "127.0.0.1:7001", "replica to address")
		peer   = flag.String("peer", "", "second replica (transitions apply to both)")
		group  = flag.String("group", "", "replica group (shard) to address on a sharded daemon")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: ftmctl [-target addr] [-peer addr] [-group id] status|shards|arch|health|slo|metrics|events|blackbox|trace <id>|transition <ftm>|invoke <op> <arg>")
	}

	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	targets := []transport.Address{transport.Address(*target)}
	if *peer != "" {
		targets = append(targets, transport.Address(*peer))
	}

	switch args[0] {
	case "status":
		for _, addr := range targets {
			st, err := mgmt.QueryStatus(ctx, ep, addr, *group)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			label := ""
			if st.Group != "" {
				label = " group=" + st.Group
			}
			fmt.Printf("%s: system=%s%s ftm=%s role=%s\n", st.Host, st.System, label, st.FTM, st.Role)
			fmt.Printf("  scheme: before=%s proceed=%s after=%s\n",
				st.Scheme.Before, st.Scheme.Proceed, st.Scheme.After)
			for _, e := range st.Events {
				fmt.Printf("  event: %s\n", e)
			}
		}
	case "shards":
		for _, addr := range targets {
			rows, err := mgmt.QueryShards(ctx, ep, addr)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			for _, row := range rows {
				line := fmt.Sprintf("shard %-4s system=%s host=%s ftm=%s role=%s health=%s",
					row.Group, row.System, row.Host, row.FTM, row.Role, row.Health)
				if row.SLO != "" {
					line += " slo=" + row.SLO
				}
				fmt.Println(line)
			}
		}
	case "slo":
		for _, addr := range targets {
			doc, err := mgmt.QuerySLO(ctx, ep, addr)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			var rows []struct {
				Shard     string `json:"shard"`
				Objective struct {
					LatencyP99   time.Duration `json:"latency_p99_ns"`
					Availability float64       `json:"availability"`
				} `json:"objective"`
				Grade   string `json:"grade"`
				Windows []struct {
					Window     string  `json:"window"`
					Total      uint64  `json:"total"`
					Bad        uint64  `json:"bad"`
					Burn       float64 `json:"burn"`
					Compliance float64 `json:"compliance"`
				} `json:"windows"`
				BudgetRemaining float64       `json:"budget_remaining"`
				P99             time.Duration `json:"p99_ns"`
				Captures        uint64        `json:"captures"`
			}
			if err := json.Unmarshal([]byte(doc), &rows); err != nil {
				return fmt.Errorf("%s: bad slo reply: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			for _, row := range rows {
				fmt.Printf("shard %-8s %-4s p99=%s (objective %s @ %.3f%%) budget=%.1f%% captures=%d\n",
					row.Shard, row.Grade, row.P99, row.Objective.LatencyP99,
					row.Objective.Availability*100, row.BudgetRemaining*100, row.Captures)
				for _, w := range row.Windows {
					fmt.Printf("  %-4s burn=%-8.2f compliance=%.4f (%d/%d bad)\n",
						w.Window, w.Burn, w.Compliance, w.Bad, w.Total)
				}
			}
		}
	case "arch":
		for _, addr := range targets {
			arch, err := mgmt.QueryArchitecture(ctx, ep, addr, *group)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			fmt.Println(arch)
		}
	case "health":
		for _, addr := range targets {
			doc, err := mgmt.QueryHealth(ctx, ep, addr, *group)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			var rep struct {
				Host       string `json:"host"`
				Overall    string `json:"overall"`
				Collectors []struct {
					Name    string `json:"name"`
					Verdict string `json:"verdict"`
					Reason  string `json:"reason"`
				} `json:"collectors"`
				Transitions []struct {
					Time  time.Time `json:"time"`
					From  string    `json:"from"`
					To    string    `json:"to"`
					Cause string    `json:"cause"`
				} `json:"transitions"`
			}
			if err := json.Unmarshal([]byte(doc), &rep); err != nil {
				return fmt.Errorf("%s: bad health reply: %w", addr, err)
			}
			fmt.Printf("%s: %s\n", rep.Host, rep.Overall)
			for _, c := range rep.Collectors {
				fmt.Printf("  %-12s %-10s %s\n", c.Name, c.Verdict, c.Reason)
			}
			for _, tr := range rep.Transitions {
				fmt.Printf("  flip %s %s->%s (%s)\n",
					tr.Time.Format(time.RFC3339), tr.From, tr.To, tr.Cause)
			}
		}
	case "metrics":
		for _, addr := range targets {
			text, err := mgmt.QueryMetrics(ctx, ep, addr)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			fmt.Print(text)
		}
	case "events":
		kind := ""
		if len(args) > 1 {
			kind = args[1]
		}
		for _, addr := range targets {
			events, err := mgmt.QueryEvents(ctx, ep, addr, kind, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			for _, e := range events {
				fmt.Printf("%6d %s %s/%s", e.Seq, e.Time.Format(time.RFC3339Nano), e.Kind, e.Name)
				if e.Dur > 0 {
					fmt.Printf(" dur=%s", e.Dur)
				}
				for k, v := range e.Attrs {
					fmt.Printf(" %s=%s", k, v)
				}
				fmt.Println()
			}
		}
	case "trace":
		if len(args) < 2 {
			return fmt.Errorf("usage: ftmctl trace <16-hex-id>")
		}
		for _, addr := range targets {
			doc, err := mgmt.QueryTrace(ctx, ep, addr, args[1])
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			fmt.Println(doc)
		}
	case "blackbox":
		for _, addr := range targets {
			doc, err := mgmt.QueryBlackbox(ctx, ep, addr)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			if len(targets) > 1 {
				fmt.Printf("# %s\n", addr)
			}
			fmt.Println(doc)
		}
	case "transition":
		if len(args) < 2 {
			return fmt.Errorf("usage: ftmctl transition <ftm>")
		}
		to := core.ID(args[1])
		if _, err := core.Lookup(to); err != nil {
			return err
		}
		for _, addr := range targets {
			out, err := mgmt.RequestTransition(ctx, ep, addr, *group, to)
			if err != nil {
				return fmt.Errorf("%s: %w", addr, err)
			}
			fmt.Printf("%s: %s -> %s replaced %v (deploy %dµs, script %dµs, remove %dµs)\n",
				addr, out.From, out.To, out.Replaced, out.DeployUS, out.ScriptUS, out.RemoveUS)
		}
	case "invoke":
		if len(args) < 3 {
			return fmt.Errorf("usage: ftmctl invoke <op> <arg>")
		}
		arg, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad argument %q: %w", args[2], err)
		}
		// Each ftmctl run is a fresh client: a unique identity keeps the
		// service's at-most-once reply log from replaying an earlier
		// process's requests. Always-trace makes the single invocation
		// sampled, so `ftmctl trace` can read it back afterwards.
		clientID := fmt.Sprintf("ftmctl-%d-%d", os.Getpid(), time.Now().UnixNano())
		opts := []rpc.ClientOption{rpc.WithAlwaysTrace()}
		if *group != "" {
			opts = append(opts, rpc.WithGroup(*group))
		}
		client := rpc.NewClient(clientID, ep, targets, opts...)
		resp, err := client.Invoke(ctx, args[1], ftm.EncodeArg(arg))
		if err != nil {
			return err
		}
		v, err := ftm.DecodeResult(resp.Payload)
		if err != nil {
			return err
		}
		fmt.Printf("%s %d -> %d\n", args[1], arg, v)
		fmt.Printf("trace %016x\n", telemetry.TraceIDFor(clientID, resp.Seq))
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}
