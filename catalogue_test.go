package resilientft

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/telemetry"
)

// catalogueSeries returns the series names README's metric catalogue
// documents: the backticked names in the first cell of each table row
// under "## Observability", with the parenthesised label lists dropped.
func catalogueSeries(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	start := strings.Index(text, "## Observability")
	if start < 0 {
		t.Fatal("README has no Observability section")
	}
	text = text[start:]
	if end := strings.Index(text, "\n### "); end >= 0 {
		text = text[:end]
	}
	labels := regexp.MustCompile(`\([^)]*\)`)
	name := regexp.MustCompile("`([a-z][a-z0-9_]*)`")
	out := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line[1:], "|", 2)[0]
		for _, m := range name.FindAllStringSubmatch(labels.ReplaceAllString(cell, ""), -1) {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("README's metric catalogue has no rows")
	}
	return out
}

// TestMetricCatalogueMatchesRegistry fails when README's metric
// catalogue and the series the code registers drift apart: every series
// a PBR pair registers while serving a request and adapting to LFR needs
// a row, and every row must name a series that some non-test source
// file spells out as a string literal.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	rows := catalogueSeries(t)

	ctx := context.Background()
	sys, err := ftm.NewSystem(ctx, ftm.SystemConfig{
		System:            "catalogue",
		FTM:               core.PBR,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	client, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(ctx, "add:x", ftm.EncodeArg(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := adaptation.NewEngine(nil).TransitionSystem(ctx, sys, core.LFR); err != nil {
		t.Fatal(err)
	}

	registered := make(map[string]bool)
	for _, s := range telemetry.Default().Snapshot() {
		series, _, _ := strings.Cut(s.Name, "{")
		registered[series] = true
	}
	for series := range registered {
		if !rows[series] {
			t.Errorf("series %s is registered but has no row in README's metric catalogue", series)
		}
	}

	var source strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench is a separate module that measures the library; it
			// does not define the library's series.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		source.Write(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := source.String()
	for series := range rows {
		if !strings.Contains(src, `"`+series+`"`) {
			t.Errorf("README's metric catalogue lists %s, but no non-test source registers it", series)
		}
	}
}
