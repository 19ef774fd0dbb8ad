package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchSmoke runs every workload for a few seconds against real
// resilientd processes — and one traced run — and checks what the full
// benchmark relies on: every catalogued metric present and finite, no
// failed request, a clean audit, the whole fault schedule executed and
// no daemon left behind.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons; skipped under -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "resilientd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/resilientd")
	build.Dir = ".." // the repository root, where cmd/resilientd lives
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build resilientd: %v\n%s", err, out)
	}
	e := env{daemonBin: bin, logDir: dir}
	t.Cleanup(killAllDaemons)

	check := func(t *testing.T, res RunResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err) // includes a missing or non-finite metric
		}
		if !res.Correct {
			t.Errorf("run incorrect: %v", res.Warnings)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
		}
		if a := res.Audit; a.Lost != 0 || a.Dup != 0 || a.ReadErrs != 0 || a.Registers == 0 {
			t.Errorf("audit: %+v", a)
		}
		if res.Transitions < 2 || res.Kills < 1 {
			t.Errorf("fault schedule ran %d transitions and %d kill cycles", res.Transitions, res.Kills)
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runOne(context.Background(), e, w, 1, minSeconds+1, false)
			check(t, res, err)
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := workloadByName("closed_sharded_mixed")
		res, err := runOne(context.Background(), e, w, 1, minSeconds+3, true)
		check(t, res, err)
		if b := res.Budget; b == nil || b.Requests == 0 || b.Unaccounted > 0.01 || b.Unaccounted < -0.01 {
			t.Errorf("self-time budget: %+v", b)
		}
	})
	if stray := strayDaemons(bin); len(stray) != 0 {
		t.Errorf("resilientd processes outlived the benchmark: %v", stray)
	}
}
