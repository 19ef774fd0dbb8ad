package experiments

import (
	"context"
	"strings"
	"testing"

	"resilientft/internal/core"
)

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1()
	// Spot-check the paper's cells.
	for _, want := range []string{
		"FT: crash", "FT: transient value", "FT: permanent value",
		"A: requires state access", "R: bandwidth", "R: CPU",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing row %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	find := func(prefix string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	// PBR: crash yes; bandwidth high, CPU low; TR bandwidth n/a CPU high.
	bw := find("R: bandwidth")
	if !strings.Contains(bw, "high") || !strings.Contains(bw, "n/a") {
		t.Errorf("bandwidth row wrong: %s", bw)
	}
}

func TestTable2DerivedFromLiveArchitectures(t *testing.T) {
	out, err := Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := []string{
		"PBR (Primary)", "Nothing", "Compute", "Checkpoint to Backup",
		"PBR (Backup)", "Process checkpoint",
		"LFR (Leader)", "Forward request", "Notify Follower",
		"LFR (Follower)", "Receive request", "Process notification",
		"TR", "Capture state", "Restore state",
	}
	for _, want := range rows {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2AndFig8Render(t *testing.T) {
	f2 := Fig2()
	if !strings.Contains(f2, "PBR <-> LFR [A,R]") {
		t.Errorf("Figure 2 missing PBR<->LFR edge:\n%s", f2)
	}
	f8 := Fig8()
	for _, want := range []string{"Mandatory", "Possible", "Intra-FTM",
		"bandwidth-drop", "proactive", "no-generic-solution"} {
		if !strings.Contains(f8, want) {
			t.Errorf("Figure 8 missing %q", want)
		}
	}
}

func TestFig6ShowsPBRArchitecture(t *testing.T) {
	out, err := Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol", "syncBefore", "proceed", "syncAfter", "replyLog", "server"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 6 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Deployment must cost more than any differential transition — the
	// paper's headline result.
	meanDep, meanTr := res.MeanDeploy(), res.MeanTransition()
	if meanDep <= meanTr {
		t.Fatalf("deployment (%v) not slower than transition (%v)", meanDep, meanTr)
	}
	// Diagonal is zero.
	for _, id := range core.DeployableSet() {
		if res.Transition[[2]core.ID{id, id}] != 0 {
			t.Errorf("diagonal %s not zero", id)
		}
	}
	// Transition time grows with the number of components replaced.
	byDiff := res.TransitionByDiffSize()
	if byDiff[1] == 0 || byDiff[2] == 0 || byDiff[3] == 0 {
		t.Fatalf("missing diff sizes: %v", byDiff)
	}
	if float64(byDiff[1]) >= 1.2*float64(byDiff[3]) {
		t.Errorf("1-component transition (%v) not faster than 3-component (%v)", byDiff[1], byDiff[3])
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Error("render missing title")
	}
}

func TestFig9Shape(t *testing.T) {
	if _, err := Fig9(context.Background(), 1); err != nil { // warm-up
		t.Fatal(err)
	}
	rows, err := Fig9(context.Background(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Components != 1 || rows[1].Components != 2 || rows[2].Components != 3 {
		t.Fatalf("component counts = %d/%d/%d", rows[0].Components, rows[1].Components, rows[2].Components)
	}
	// Total transition time grows with components replaced; allow a small
	// scheduling-noise margin on the strict ordering.
	if float64(rows[0].Steps.Total()) >= 1.2*float64(rows[2].Steps.Total()) {
		t.Errorf("1-component total (%v) not below 3-component total (%v)",
			rows[0].Steps.Total(), rows[2].Steps.Total())
	}
	out := RenderFig9(rows)
	if !strings.Contains(out, "Figure 9") {
		t.Error("render missing title")
	}
}

func TestFig5AttributesPatterns(t *testing.T) {
	rows, err := Fig5("../..")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int, len(rows))
	for _, r := range rows {
		got[r.Pattern] = r.Lines
	}
	for _, pattern := range []string{"PBR", "LFR", "TR", "Assertion",
		"FaultToleranceProtocol", "DuplexProtocol", "Generic scheme"} {
		if got[pattern] == 0 {
			t.Errorf("pattern %q has no attributed lines: %v", pattern, got)
		}
	}
	// The factored common parts dwarf any single pattern — the design-
	// for-adaptation claim.
	if got["FaultToleranceProtocol"] < got["PBR"] {
		t.Errorf("common protocol (%d) smaller than PBR-specific code (%d)",
			got["FaultToleranceProtocol"], got["PBR"])
	}
}

func TestFig4CompositionCostsNothing(t *testing.T) {
	rows, err := Fig4("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if (r.FTM == core.PBRTR || r.FTM == core.LFRTR) && r.Specific != 0 {
			t.Errorf("composition %s has %d specific lines, want 0", r.FTM, r.Specific)
		}
		if r.ReuseRatio() < 0.5 {
			t.Errorf("FTM %s reuse ratio %.2f below 0.5", r.FTM, r.ReuseRatio())
		}
	}
	if !strings.Contains(RenderFig4(rows), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestAgilityComparison(t *testing.T) {
	res, err := Agility(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The preprogrammed stack carries far more resident components.
	if res.PreprogComponents <= res.AgileComponents {
		t.Errorf("preprog components %d not above agile %d", res.PreprogComponents, res.AgileComponents)
	}
	if !res.PreprogForeseenOnly {
		t.Error("preprogrammed replica accepted an unforeseen FTM")
	}
	out := res.Render()
	if !strings.Contains(out, "agility") {
		t.Error("render missing title")
	}
}

func TestSLOCSummary(t *testing.T) {
	out, err := SLOCSummary("../..")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "library SLOC") {
		t.Errorf("summary = %q", out)
	}
}

func TestAblationDifferentialWins(t *testing.T) {
	res, err := AblationDifferential(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Monolithic <= res.Differential {
		t.Fatalf("monolithic (%v) not slower than differential (%v)", res.Monolithic, res.Differential)
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render missing title")
	}
}
