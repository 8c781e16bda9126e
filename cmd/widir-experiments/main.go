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
//	widir-experiments -cache results-cache -v   # warm reruns simulate nothing
//
// Experiments: motivation, table4, fig5, fig6, fig7, table5, fig8,
// fig9, fig10, table6, all. On demand only (not part of all): summary
// (the headline table), faultsweep (robustness under injected wireless
// faults) and ablations (the design-choice comparisons).
//
// Stdout carries only results, so it is byte-identical across runs,
// -parallel widths and cache states; per-experiment wall times and the
// -v counters go to stderr.
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
var experiments = []string{"summary", "motivation", "table4", "fig5", "fig6", "fig7", "table5", "fig8", "fig9", "fig10", "table6", "faultsweep", "ablations", "all"}

// onDemand names the experiments "all" skips.
var onDemand = []string{"summary", "faultsweep", "ablations"}

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
		csv      = fs.Bool("csv", false, "emit machine-readable CSV instead of tables (fig5, fig8, fig10, table6, faultsweep)")
		parallel = fs.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache", "", "persistent result cache directory (empty = none); reruns read every simulation from it")
		verbose  = fs.Bool("v", false, "report runner and cache counters on stderr when done")
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
	// *parallel workers, and the memo shares runs between tables (e.g.
	// -exp all simulates each Baseline app once, not once per table).
	// With -cache the memo is backed by disk under the same key.
	r := exp.NewRunner(*parallel)
	var cache *exp.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = exp.OpenCache(*cacheDir); err != nil {
			fmt.Fprintf(stderr, "widir-experiments: %v\n", err)
			return 1
		}
		r.SetCache(cache)
	}
	o := exp.Options{Cores: *cores, Scale: *scale, Seed: *seed, Runner: r}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}

	failed := false
	step := func(name string, fn func() error) {
		// On-demand experiments are not paper figures (or, for
		// summary, repeat the pair runs), so "all" skips them.
		selected := *which == name || (*which == "all" && !slices.Contains(onDemand, name))
		if failed || !selected {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "widir-experiments: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
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
	step("ablations", func() error {
		a, err := exp.Ablations(o)
		if err != nil {
			return err
		}
		exp.PrintAblations(stdout, a)
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
	// Figures 6, 7 and 9 share one set of pair runs: the first of them
	// simulates, the memo serves the others.
	pairFig := func(name string, print func(rows []exp.AppRow)) {
		step(name, func() error {
			rows, err := exp.RunPairs(o)
			if err != nil {
				return err
			}
			print(rows)
			return nil
		})
	}
	pairFig("fig6", func(rows []exp.AppRow) { exp.PrintFig6(stdout, exp.Fig6(rows)) })
	pairFig("fig7", func(rows []exp.AppRow) { exp.PrintFig7(stdout, exp.Fig7(rows)) })
	pairFig("fig9", func(rows []exp.AppRow) { exp.PrintFig9(stdout, exp.Fig9(rows)) })
	step("table5", func() error {
		t, err := exp.Table5(o)
		if err != nil {
			return err
		}
		exp.PrintTable5(stdout, t)
		return nil
	})
	step("fig8", func() error {
		for i, n := range []int{64, 32, 16} {
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
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			exp.PrintFig8(stdout, n, exp.Fig8(rows))
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
		// How much the memo and the cache actually saved: a warm -cache
		// rerun reports sims=0.
		fmt.Fprintf(stderr, "widir-experiments: runner %s\n", r.Stats())
		if cache != nil {
			fmt.Fprintf(stderr, "widir-experiments: cache %s %s\n", cache.Dir(), cache.Stats())
		}
	}
	return 0
}
