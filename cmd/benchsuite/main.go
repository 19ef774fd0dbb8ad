// Command benchsuite regenerates the paper's evaluation artifacts: every
// table and figure, printed in the paper's layout. Running it end to end
// produces the data recorded in EXPERIMENTS.md.
//
//	benchsuite                  # all experiments
//	benchsuite -exp table3      # one experiment
//	benchsuite -runs 100        # the paper's repetition count
//
// Request-path performance is not measured here: `bash bench/run.sh` is
// the repository's one benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"resilientft/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table1|table2|table3|fig2|fig4|fig5|fig6|fig8|fig9|agility|ablation|all")
		runs = flag.Int("runs", 100, "repetitions per timed measurement (the paper uses 100)")
		root = flag.String("root", ".", "repository root (for the SLOC figures)")
	)
	flag.Parse()
	ctx := context.Background()

	switch *exp {
	case "table1", "table2", "table3", "fig2", "fig4", "fig5", "fig6", "fig8", "fig9",
		"agility", "ablation", "all":
	default:
		log.Fatalf("unknown experiment %q (see -exp in -help)", *exp)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	section := func(title string) {
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(title)
		fmt.Println(strings.Repeat("=", 78))
	}

	if want("table1") {
		section("Table 1 — (FT, A, R) characteristics")
		fmt.Println(experiments.Table1())
	}
	if want("table2") {
		section("Table 2 — generic execution schemes (live-derived)")
		out, err := experiments.Table2(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if want("fig2") {
		section("Figure 2 — transition graph")
		fmt.Println(experiments.Fig2())
	}
	if want("fig8") {
		section("Figure 8 — extended scenario graph")
		fmt.Println(experiments.Fig8())
	}
	if want("fig6") {
		section("Figure 6 — PBR component architecture")
		out, err := experiments.Fig6(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if want("table3") {
		section("Table 3 — deployment vs differential transition times")
		res, err := experiments.Table3(ctx, *runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
		fmt.Println("mean transition by components replaced:")
		byDiff := res.TransitionByDiffSize()
		for n := 1; n <= 3; n++ {
			fmt.Printf("  %d component(s): %v\n", n, byDiff[n])
		}
		fmt.Println()
	}
	if want("fig9") {
		section("Figure 9 — transition time breakdown")
		rows, err := experiments.Fig9(ctx, *runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderFig9(rows))
	}
	if want("fig5") {
		section("Figure 5 — SLOC per fault-tolerance pattern")
		rows, err := experiments.Fig5(*root)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderFig5(rows))
		summary, err := experiments.SLOCSummary(*root)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(summary)
	}
	if want("fig4") {
		section("Figure 4 (substitution) — framework reuse per FTM")
		rows, err := experiments.Fig4(*root)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderFig4(rows))
	}
	if want("agility") {
		section("§6.2 — agility vs preprogrammed adaptation")
		res, err := experiments.Agility(ctx, *runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
	}
	if want("ablation") {
		section("Extra — differential vs monolithic replacement ablation")
		res, err := experiments.AblationDifferential(ctx, *runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
	}
}
