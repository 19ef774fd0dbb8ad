package main

import (
	"bytes"
	"os"
	"testing"
)

// The names the program prints and the names BENCHMARK.json declares
// must be the same: a metric renamed on one side only would silently
// vanish from every comparison.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := benchmarkJSON()
	if !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with\n  bash bench/run.sh -benchmark-json > BENCHMARK.json\nwant:\n%s", want)
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	setup := false
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if seen[d.Name] {
				t.Errorf("metric %s is declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better=%q", d.Name, d.Better)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 || d.Unit == "" {
				t.Errorf("metric %s: name or unit outside the contract's limits", d.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" || (d.Source != "T" && d.Source != "M" && d.Source != "P") {
			t.Errorf("per-layer metric %s lacks its layer, source or the end-to-end metric it moves", d.Name)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}
