// Command widir-experiments regenerates the paper's evaluation: every
// table and figure of Section VI, printed in the same rows/series the
// paper reports (relative numbers — the reproduction targets the shape
// of the results, not absolute testbed numbers).
//
// Usage:
//
//	widir-experiments                    # everything, full scale
//	widir-experiments -exp fig8 -cores 64
//	widir-experiments -exp table6 -scale 0.5
//
// Experiments: motivation, table4, fig5, fig6, fig7, table5, fig8,
// fig9, fig10, table6, all. Beyond the paper: faultsweep (robustness
// under injected wireless faults; on demand only, like summary).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
)

// experiments names every valid -exp value.
var experiments = []string{"summary", "motivation", "table4", "fig5", "fig6", "fig7", "table5", "fig8", "fig9", "fig10", "table6", "faultsweep", "all"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("widir-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which    = fs.String("exp", "all", "experiment to run ("+strings.Join(experiments, ",")+")")
		cores    = fs.Int("cores", 64, "core count for single-machine experiments")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		seed     = fs.Uint64("seed", 1, "workload seed")
		apps     = fs.String("apps", "", "comma-separated application subset (default: all 20)")
		csv      = fs.Bool("csv", false, "emit machine-readable CSV instead of tables (fig5, fig8, fig10, table6)")
		parallel = fs.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
		verbose  = fs.Bool("v", false, "report runner memoization counters on stderr when done")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(experiments, *which) {
		fmt.Fprintf(stderr, "widir-experiments: unknown experiment %q (valid: %s)\n", *which, strings.Join(experiments, ", "))
		return 2
	}
	if *cores <= 0 || !(*scale > 0) {
		fmt.Fprintf(stderr, "widir-experiments: -cores %d and -scale %v must be positive\n", *cores, *scale)
		return 2
	}

	// One runner for every experiment: simulations fan out across
	// *parallel workers, and the memo shares canonical runs between
	// tables (e.g. -exp all simulates each Baseline app once, not once
	// per table).
	o := exp.Options{Cores: *cores, Scale: *scale, Seed: *seed, Runner: exp.NewRunner(*parallel)}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}

	failed := false
	step := func(name string, fn func() error) {
		// On-demand experiments: summary duplicates the pair runs and
		// faultsweep is not a paper figure, so "all" skips both.
		if (name == "summary" || name == "faultsweep") && *which != name {
			return
		}
		if failed || (*which != "all" && *which != name) {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "widir-experiments: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	step("summary", func() error {
		rows, err := exp.Summary(o)
		if err != nil {
			return err
		}
		exp.PrintSummary(stdout, rows)
		return nil
	})
	step("faultsweep", func() error {
		rows, err := exp.FaultSweep(o, []float64{0.01, 0.05, 0.1, 0.25, 0.5}, fault.Config{})
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFaultSweep(stdout, rows)
			return nil
		}
		exp.PrintFaultSweep(stdout, rows)
		return nil
	})
	step("motivation", func() error {
		m, err := exp.Motivation(o)
		if err != nil {
			return err
		}
		exp.PrintMotivation(stdout, m)
		return nil
	})
	step("table4", func() error {
		rows, err := exp.Table4(o)
		if err != nil {
			return err
		}
		exp.PrintTable4(stdout, rows)
		return nil
	})
	step("fig5", func() error {
		rows, err := exp.Fig5(o)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFig5(stdout, rows)
			return nil
		}
		exp.PrintFig5(stdout, rows)
		return nil
	})

	// Figures 6, 7, 8(64) and 9 share one set of pair runs.
	if !failed && (*which == "all" || *which == "fig6" || *which == "fig7" || *which == "fig9") {
		step("pairs", func() error { return nil }) // spacing only
		start := time.Now()
		rows, err := exp.RunPairs(o)
		if err != nil {
			fmt.Fprintf(stderr, "widir-experiments: pairs: %v\n", err)
			return 1
		}
		if *which == "all" || *which == "fig6" {
			exp.PrintFig6(stdout, exp.Fig6(rows))
			fmt.Fprintln(stdout)
		}
		if *which == "all" || *which == "fig7" {
			exp.PrintFig7(stdout, exp.Fig7(rows))
			fmt.Fprintln(stdout)
		}
		if *which == "all" || *which == "fig9" {
			exp.PrintFig9(stdout, exp.Fig9(rows))
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "[fig6/fig7/fig9 pair runs took %v]\n\n", time.Since(start).Round(time.Millisecond))
	}

	step("table5", func() error {
		t, err := exp.Table5(o)
		if err != nil {
			return err
		}
		exp.PrintTable5(stdout, t)
		return nil
	})
	step("fig8", func() error {
		for _, n := range []int{64, 32, 16} {
			oo := o
			oo.Cores = n
			rows, err := exp.RunPairs(oo)
			if err != nil {
				return err
			}
			if *csv {
				exp.CSVFig8(stdout, n, exp.Fig8(rows))
				continue
			}
			exp.PrintFig8(stdout, n, exp.Fig8(rows))
			fmt.Fprintln(stdout)
		}
		return nil
	})
	step("fig10", func() error {
		pts, err := exp.Fig10(o, nil)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFig10(stdout, pts)
			return nil
		}
		exp.PrintFig10(stdout, pts)
		return nil
	})
	step("table6", func() error {
		rows, err := exp.Table6(o, nil)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVTable6(stdout, rows)
			return nil
		}
		exp.PrintTable6(stdout, rows)
		return nil
	})
	if failed {
		return 1
	}
	if *verbose {
		// How much the memo actually saved — e.g. -exp all simulates
		// each canonical run once and serves every other table from
		// the memo, which this line makes visible.
		fmt.Fprintf(stderr, "widir-experiments: runner %s\n", o.Runner.Stats())
	}
	return 0
}
