// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (FTM characteristics), Table 2 (generic execution
// schemes, derived live from deployed architectures), Table 3 (deployment
// vs differential transition times), Figures 2 and 8 (transition and
// scenario graphs), Figure 5 (SLOC per fault-tolerance pattern, measured
// over this repository), the Figure 4 substitution (framework reuse), the
// Figure 6 architecture dump, Figure 9 (transition time breakdown) and
// the §6.2 agility comparison against preprogrammed adaptation.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/transport"
)

// Table1 renders the (FT, A, R) characteristics of the illustrative FTM
// set from the live catalogue — the paper's Table 1 plus the composed
// mechanisms.
func Table1() string {
	var b strings.Builder
	cols := []core.ID{core.PBR, core.LFR, core.TR, core.ALFR, core.PBRTR, core.LFRTR}
	header := []string{"PBR", "LFR", "TR", "A&Duplex", "PBR⊕TR", "LFR⊕TR"}
	fmt.Fprintf(&b, "Table 1: (FT, A, R) parameters of considered FTMs\n")
	fmt.Fprintf(&b, "%-28s", "Characteristic")
	for _, h := range header {
		fmt.Fprintf(&b, "%-10s", h)
	}
	b.WriteByte('\n')

	row := func(label string, cell func(d core.Descriptor) string) {
		fmt.Fprintf(&b, "%-28s", label)
		for _, id := range cols {
			fmt.Fprintf(&b, "%-10s", cell(core.MustLookup(id)))
		}
		b.WriteByte('\n')
	}
	check := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	row("FT: crash", func(d core.Descriptor) string { return check(d.Tolerates.Has(core.FaultCrash)) })
	row("FT: transient value", func(d core.Descriptor) string { return check(d.Tolerates.Has(core.FaultTransientValue)) })
	row("FT: permanent value", func(d core.Descriptor) string { return check(d.Tolerates.Has(core.FaultPermanentValue)) })
	row("A: deterministic", func(d core.Descriptor) string { return "yes" })
	row("A: non-deterministic", func(d core.Descriptor) string { return check(!d.NeedsDeterminism) })
	row("A: requires state access", func(d core.Descriptor) string { return check(d.NeedsStateAccess) })
	row("R: bandwidth", func(d core.Descriptor) string { return d.Bandwidth.String() })
	row("R: CPU", func(d core.Descriptor) string { return d.CPU.String() })
	return b.String()
}

// slotPhrase translates a brick component type into the Table 2 wording.
var slotPhrase = map[string]string{
	core.TypeNop:            "Nothing",
	core.TypeComputeProceed: "Compute",
	core.TypeNoProceed:      "Nothing",
	core.TypeTRProceed:      "Compute twice & compare",
	core.TypeAssertProceed:  "Compute & assert output",
	core.TypePBRCheckpoint:  "Checkpoint to Backup",
	core.TypePBRApply:       "Process checkpoint",
	core.TypeLFRForward:     "Forward request",
	core.TypeLFRReceive:     "Receive request",
	core.TypeLFRNotify:      "Notify Follower",
	core.TypeLFRAck:         "Process notification",
	core.TypeTRCapture:      "Capture state",
	core.TypeTRRestore:      "Restore state",
}

// Table2 derives the generic execution scheme of every FTM from live
// deployments: each mechanism is deployed on a scratch host and the
// before/proceed/after component types are read back by introspection —
// the table reports what actually runs, not what the catalogue claims.
func Table2(ctx context.Context) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: generic execution scheme of considered FTMs (derived from live architectures)\n")
	fmt.Fprintf(&b, "%-18s %-24s %-26s %-24s\n", "FTM (role)", "Before", "Proceed", "After")

	type rowSpec struct {
		id    core.ID
		role  core.Role
		label string
	}
	rows := []rowSpec{
		{core.PBR, core.RoleMaster, "PBR (Primary)"},
		{core.PBR, core.RoleSlave, "PBR (Backup)"},
		{core.LFR, core.RoleMaster, "LFR (Leader)"},
		{core.LFR, core.RoleSlave, "LFR (Follower)"},
		{core.TR, core.RoleMaster, "TR"},
		{core.APBR, core.RoleMaster, "A&PBR (Primary)"},
		{core.ALFR, core.RoleMaster, "A&LFR (Leader)"},
		{core.PBRTR, core.RoleMaster, "PBR⊕TR (Primary)"},
		{core.LFRTR, core.RoleMaster, "LFR⊕TR (Leader)"},
	}
	for i, r := range rows {
		scheme, err := deployAndInspect(ctx, fmt.Sprintf("t2-%d", i), r.id, r.role)
		if err != nil {
			return "", fmt.Errorf("experiments: table2 %s/%s: %w", r.id, r.role, err)
		}
		fmt.Fprintf(&b, "%-18s %-24s %-26s %-24s\n", r.label,
			slotPhrase[scheme.Before], slotPhrase[scheme.Proceed], slotPhrase[scheme.After])
	}
	return b.String(), nil
}

// deployAndInspect deploys one replica on a scratch host and reads its
// live scheme back.
func deployAndInspect(ctx context.Context, name string, id core.ID, role core.Role) (core.Scheme, error) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	h, err := host.New(name, net, ftm.NewRegistry())
	if err != nil {
		return core.Scheme{}, err
	}
	defer h.Crash()
	r, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
		System:            "probe",
		FTM:               id,
		Role:              role,
		App:               ftm.NewCalculator(),
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		return core.Scheme{}, err
	}
	return r.CurrentScheme()
}

// Fig6 dumps the live component architecture of a PBR primary — the
// paper's Figure 6.
func Fig6(ctx context.Context) (string, error) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	h, err := host.New("fig6", net, ftm.NewRegistry())
	if err != nil {
		return "", err
	}
	defer h.Crash()
	r, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
		System:            "master",
		FTM:               core.PBR,
		Role:              core.RoleMaster,
		App:               ftm.NewCalculator(),
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		return "", err
	}
	d, err := h.Runtime().Describe(r.Path())
	if err != nil {
		return "", err
	}
	return "Figure 6: component-based architecture of PBR (primary replica)\n" + d.String(), nil
}

// Fig2 renders the Figure 2 transition graph.
func Fig2() string {
	var b strings.Builder
	b.WriteString("Figure 2: transitions between FTMs\n")
	for _, e := range core.TransitionGraph() {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Fig8 renders the Figure 8 extended scenario graph grouped by kind.
func Fig8() string {
	var b strings.Builder
	b.WriteString("Figure 8: extended graph of transition scenarios\n")
	groups := []struct {
		kind  core.TransitionKind
		title string
	}{
		{core.Mandatory, "Mandatory inter-FTM transitions"},
		{core.Possible, "Possible inter-FTM transitions (system-manager gated)"},
		{core.Intra, "Intra-FTM transitions"},
	}
	for _, g := range groups {
		fmt.Fprintf(&b, "%s:\n", g.title)
		for _, e := range core.ScenarioGraph() {
			if e.Kind == g.kind {
				fmt.Fprintf(&b, "  %s --[%s]--> %s  (detected by %s, %s)\n",
					e.From, e.Trigger, e.To, e.Detection, e.Nature)
			}
		}
	}
	return b.String()
}

// Table3Result holds the deployment-vs-transition measurements.
type Table3Result struct {
	// Deploy is the from-scratch deployment time per FTM (one replica).
	Deploy map[core.ID]time.Duration
	// Transition is the differential transition time per (from, to) pair
	// (one replica).
	Transition map[[2]core.ID]time.Duration
	Runs       int
}

// soloReplica deploys a single measurable replica (no peer, quiet
// detector) of an FTM.
func soloReplica(ctx context.Context, name string, id core.ID) (*ftm.Replica, *host.Host, error) {
	net := transport.NewMemNetwork(transport.WithSeed(1))
	h, err := host.New(name, net, ftm.NewRegistry())
	if err != nil {
		return nil, nil, err
	}
	r, err := ftm.NewReplica(ctx, h, ftm.ReplicaConfig{
		System:            "bench",
		FTM:               id,
		Role:              core.RoleMaster,
		App:               ftm.NewCalculator(),
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		h.Crash()
		return nil, nil, err
	}
	return r, h, nil
}

// Table3 measures, over runs repetitions, the from-scratch deployment
// time of each FTM in the evaluation set and every differential
// transition between them, reporting one replica's time (the paper's
// Table 3 protocol).
func Table3(ctx context.Context, runs int) (*Table3Result, error) {
	if runs < 1 {
		runs = 1
	}
	res := &Table3Result{
		Deploy:     make(map[core.ID]time.Duration),
		Transition: make(map[[2]core.ID]time.Duration),
		Runs:       runs,
	}
	set := core.DeployableSet()
	for _, id := range set {
		var total time.Duration
		for run := 0; run < runs; run++ {
			start := time.Now()
			r, h, err := soloReplica(ctx, fmt.Sprintf("t3-dep-%s-%d", id, run), id)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("experiments: deploy %s: %w", id, err)
			}
			_ = r
			total += elapsed
			h.Crash()
		}
		res.Deploy[id] = total / time.Duration(runs)
	}
	engine := adaptation.NewEngine(nil)
	for _, from := range set {
		for _, to := range set {
			if from == to {
				res.Transition[[2]core.ID{from, to}] = 0
				continue
			}
			var total time.Duration
			for run := 0; run < runs; run++ {
				r, h, err := soloReplica(ctx, fmt.Sprintf("t3-tr-%s-%s-%d", from, to, run), from)
				if err != nil {
					return nil, fmt.Errorf("experiments: prepare %s: %w", from, err)
				}
				report := engine.TransitionReplica(ctx, r, to)
				if report.Err != nil {
					h.Crash()
					return nil, fmt.Errorf("experiments: transition %s->%s: %w", from, to, report.Err)
				}
				total += report.Steps.Total()
				h.Crash()
			}
			res.Transition[[2]core.ID{from, to}] = total / time.Duration(runs)
		}
	}
	return res, nil
}

// Render formats the Table 3 matrix (microseconds; the paper's FraSCAti
// numbers are milliseconds — the shape, not the absolute scale, is the
// reproduction target).
func (r *Table3Result) Render() string {
	var b strings.Builder
	set := core.DeployableSet()
	label := map[core.ID]string{
		core.PBR: "PBR", core.LFR: "LFR", core.PBRTR: "PBR⊕TR",
		core.LFRTR: "LFR⊕TR", core.APBR: "A&PBR", core.ALFR: "A&LFR",
	}
	fmt.Fprintf(&b, "Table 3: FTM deployment from scratch vs transition execution time (µs, mean of %d runs, one replica)\n", r.Runs)
	fmt.Fprintf(&b, "%-10s", "FTM1\\FTM2")
	for _, to := range set {
		fmt.Fprintf(&b, "%10s", label[to])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-10s", "∅ (deploy)")
	for _, to := range set {
		fmt.Fprintf(&b, "%10d", r.Deploy[to].Microseconds())
	}
	b.WriteByte('\n')
	for _, from := range set {
		fmt.Fprintf(&b, "%-10s", label[from])
		for _, to := range set {
			fmt.Fprintf(&b, "%10d", r.Transition[[2]core.ID{from, to}].Microseconds())
		}
		b.WriteByte('\n')
	}
	// The paper's headline ratio: deployment vs mean transition.
	var depTotal, trTotal time.Duration
	trCount := 0
	for _, d := range r.Deploy {
		depTotal += d
	}
	for k, d := range r.Transition {
		if k[0] != k[1] {
			trTotal += d
			trCount++
		}
	}
	meanDep := depTotal / time.Duration(len(r.Deploy))
	meanTr := trTotal / time.Duration(trCount)
	fmt.Fprintf(&b, "mean deployment %v, mean transition %v, ratio %.2fx (paper: 3819/1003 ≈ 3.8x)\n",
		meanDep, meanTr, float64(meanDep)/float64(meanTr))
	return b.String()
}

// MeanDeploy returns the mean from-scratch deployment time.
func (r *Table3Result) MeanDeploy() time.Duration {
	var total time.Duration
	for _, d := range r.Deploy {
		total += d
	}
	return total / time.Duration(len(r.Deploy))
}

// MeanTransition returns the mean differential transition time.
func (r *Table3Result) MeanTransition() time.Duration {
	var total time.Duration
	n := 0
	for k, d := range r.Transition {
		if k[0] != k[1] {
			total += d
			n++
		}
	}
	return total / time.Duration(n)
}

// TransitionByDiffSize groups mean transition time by the number of
// components replaced.
func (r *Table3Result) TransitionByDiffSize() map[int]time.Duration {
	sums := make(map[int]time.Duration)
	counts := make(map[int]int)
	for k, d := range r.Transition {
		if k[0] == k[1] {
			continue
		}
		n := len(core.Diff(core.MustLookup(k[0]).MasterScheme, core.MustLookup(k[1]).MasterScheme))
		sums[n] += d
		counts[n]++
	}
	out := make(map[int]time.Duration, len(sums))
	for n, sum := range sums {
		out[n] = sum / time.Duration(counts[n])
	}
	return out
}

// Fig9Row is one transition's step breakdown.
type Fig9Row struct {
	Label      string
	Components int
	Steps      adaptation.StepTimings
}

// Percentages returns the per-step shares of the total.
func (r Fig9Row) Percentages() (deploy, script, remove float64) {
	total := float64(r.Steps.Total())
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(r.Steps.Deploy) / total,
		100 * float64(r.Steps.Script) / total,
		100 * float64(r.Steps.Remove) / total
}

// Fig9 measures the three-step breakdown of the paper's three reference
// transitions (1, 2 and 3 components replaced), averaged over runs.
func Fig9(ctx context.Context, runs int) ([]Fig9Row, error) {
	if runs < 1 {
		runs = 1
	}
	cases := []struct {
		label    string
		from, to core.ID
	}{
		{"LFR -> LFR⊕TR", core.LFR, core.LFRTR},
		{"PBR -> LFR", core.PBR, core.LFR},
		{"PBR -> LFR⊕TR", core.PBR, core.LFRTR},
	}
	engine := adaptation.NewEngine(nil)
	out := make([]Fig9Row, 0, len(cases))
	for i, tc := range cases {
		var steps adaptation.StepTimings
		var components int
		for run := 0; run < runs; run++ {
			r, h, err := soloReplica(ctx, fmt.Sprintf("f9-%d-%d", i, run), tc.from)
			if err != nil {
				return nil, err
			}
			report := engine.TransitionReplica(ctx, r, tc.to)
			if report.Err != nil {
				h.Crash()
				return nil, fmt.Errorf("experiments: fig9 %s: %w", tc.label, report.Err)
			}
			components = len(report.Replaced)
			steps.Deploy += report.Steps.Deploy
			steps.Script += report.Steps.Script
			steps.Remove += report.Steps.Remove
			h.Crash()
		}
		steps.Deploy /= time.Duration(runs)
		steps.Script /= time.Duration(runs)
		steps.Remove /= time.Duration(runs)
		out = append(out, Fig9Row{Label: tc.label, Components: components, Steps: steps})
	}
	return out, nil
}

// RenderFig9 formats the Figure 9 rows.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: transition time distribution w.r.t. number of components replaced\n")
	fmt.Fprintf(&b, "%-16s %-11s %-22s %-22s %-22s\n",
		"Transition", "Components", "Deploy package", "Execute script", "Remove package")
	for _, r := range rows {
		dp, sp, rp := r.Percentages()
		fmt.Fprintf(&b, "%-16s %-11d %8v (%4.1f%%)      %8v (%4.1f%%)      %8v (%4.1f%%)\n",
			r.Label, r.Components,
			r.Steps.Deploy.Round(time.Microsecond), dp,
			r.Steps.Script.Round(time.Microsecond), sp,
			r.Steps.Remove.Round(time.Microsecond), rp)
	}
	b.WriteString("(paper: script share grows 19% -> 35% -> 40% with 1 -> 2 -> 3 components)\n")
	return b.String()
}

// AblationResult compares the differential transition against a
// monolithic replacement of the whole FTM composite.
type AblationResult struct {
	Differential time.Duration
	Monolithic   time.Duration
	Runs         int
}

// AblationDifferential measures the design choice at the heart of the
// paper: a PBR→LFR differential transition (swap two bricks) vs a
// monolithic replacement (tear the composite down, redeploy the target
// FTM from scratch, transfer state explicitly).
func AblationDifferential(ctx context.Context, runs int) (*AblationResult, error) {
	if runs < 1 {
		runs = 1
	}
	res := &AblationResult{Runs: runs}
	engine := adaptation.NewEngine(nil)

	for run := 0; run < runs; run++ {
		// Differential.
		r, h, err := soloReplica(ctx, fmt.Sprintf("abl-d-%d", run), core.PBR)
		if err != nil {
			return nil, err
		}
		report := engine.TransitionReplica(ctx, r, core.LFR)
		if report.Err != nil {
			h.Crash()
			return nil, report.Err
		}
		res.Differential += report.Steps.Total()
		h.Crash()

		// Monolithic: capture state, remove the composite, deploy the
		// target FTM, restore state.
		r, h, err = soloReplica(ctx, fmt.Sprintf("abl-m-%d", run), core.PBR)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		state, err := r.App().StateManager().CaptureState()
		if err != nil {
			h.Crash()
			return nil, err
		}
		rt := h.Runtime()
		if err := rt.Stop(ctx, r.Path()); err != nil {
			h.Crash()
			return nil, err
		}
		cp, err := rt.LookupComposite(r.Path())
		if err != nil {
			h.Crash()
			return nil, err
		}
		for _, child := range cp.Components() {
			if err := rt.Stop(ctx, r.Path()+"/"+child.Name()); err != nil {
				h.Crash()
				return nil, err
			}
		}
		// Monolithic replacement discards the whole composite (its
		// internal wiring goes with it).
		if err := rt.Remove(r.Path()); err != nil {
			h.Crash()
			return nil, err
		}
		newApp := ftm.NewCalculator()
		if err := newApp.StateManager().RestoreState(state); err != nil {
			h.Crash()
			return nil, err
		}
		if _, err := ftm.DeployFTM(ctx, h, ftm.ReplicaConfig{
			System:            "bench",
			FTM:               core.LFR,
			Role:              core.RoleMaster,
			App:               newApp,
			HeartbeatInterval: time.Hour,
			SuspectTimeout:    24 * time.Hour,
		}, nil); err != nil {
			h.Crash()
			return nil, err
		}
		res.Monolithic += time.Since(start)
		h.Crash()
	}
	res.Differential /= time.Duration(runs)
	res.Monolithic /= time.Duration(runs)
	return res, nil
}

// Render formats the ablation.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: differential transition vs monolithic FTM replacement (PBR -> LFR, one replica)\n")
	fmt.Fprintf(&b, "  differential (swap 2 bricks):        %v\n", r.Differential.Round(time.Microsecond))
	fmt.Fprintf(&b, "  monolithic (teardown + redeploy):    %v  (%.1fx slower, plus explicit state transfer)\n",
		r.Monolithic.Round(time.Microsecond), float64(r.Monolithic)/float64(r.Differential))
	fmt.Fprintf(&b, "  (mean of %d runs)\n", r.Runs)
	return b.String()
}

// sortedIDs returns the evaluation set sorted for deterministic output.
func sortedIDs() []core.ID {
	out := append([]core.ID(nil), core.DeployableSet()...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
