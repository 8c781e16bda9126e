// Command widir-sweep runs a cartesian parameter sweep — applications x
// core counts x protocols x MaxWiredSharers thresholds — and emits one
// CSV row per run, for plotting or regression tracking.
//
// Usage:
//
//	widir-sweep -apps radiosity,barnes -cores 16,32,64 -thresholds 2,3,4 > sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// sweepJob is one point of the cartesian sweep, in output order.
type sweepJob struct {
	app workload.Profile
	p   coherence.Protocol
	n   int
	th  int
}

func main() {
	var (
		appsFlag   = flag.String("apps", "radiosity,barnes,ocean-nc", "comma-separated applications ('all' for every app)")
		coresFlag  = flag.String("cores", "64", "comma-separated core counts")
		thFlag     = flag.String("thresholds", "3", "comma-separated MaxWiredSharers values (WiDir runs)")
		protosFlag = flag.String("protocols", "baseline,widir", "comma-separated protocols")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		seed       = flag.Uint64("seed", 1, "workload seed")
		parallel   = flag.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
	)
	flag.Parse()

	apps, err := parseApps(*appsFlag)
	if err != nil {
		fatal(err)
	}
	cores, err := parseInts(*coresFlag)
	if err != nil {
		fatal(err)
	}
	thresholds, err := parseInts(*thFlag)
	if err != nil {
		fatal(err)
	}
	protos, err := parseProtocols(*protosFlag)
	if err != nil {
		fatal(err)
	}

	// Enumerate the full sweep up front so the worker pool can fan the
	// points out while the CSV rows still print in cartesian order.
	var jobs []sweepJob
	for _, app := range apps {
		scaled := app.Scale(*scale)
		for _, n := range cores {
			for _, p := range protos {
				ths := thresholds
				if p == coherence.Baseline {
					ths = thresholds[:1] // threshold is a WiDir knob
				}
				for _, th := range ths {
					jobs = append(jobs, sweepJob{app: scaled, p: p, n: n, th: th})
				}
			}
		}
	}

	r := exp.NewRunner(*parallel)
	results, err := exp.Map(r, len(jobs), func(i int) (*machine.Result, error) {
		j := jobs[i]
		cfg := machine.DefaultConfig(j.n, j.p)
		cfg.MaxWiredSharers = j.th
		if j.th > cfg.MaxPointers {
			cfg.MaxPointers = j.th
		}
		res, err := r.SimConfig(cfg, j.app, *seed)
		if err != nil {
			return nil, fmt.Errorf("%d cores, th=%d: %w", j.n, j.th, err)
		}
		return res, nil
	})
	if err != nil {
		fatal(err)
	}

	fmt.Println("app,protocol,cores,maxwired,cycles,instructions,mpki,memstall_frac,wireless_writes,stow,wtos,collision_prob,energy_pj")
	for i, res := range results {
		j := jobs[i]
		stall := float64(res.MemStallCycles) / float64(res.Cycles*uint64(j.n))
		fmt.Printf("%s,%s,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%.4f,%.0f\n",
			j.app.Name, j.p, j.n, j.th, res.Cycles, res.Retired, res.MPKI(), stall,
			res.WirelessWrites, res.SToW, res.WToS, res.CollisionProb, res.EnergyPJ)
	}
}

func parseApps(s string) ([]workload.Profile, error) {
	if s == "all" {
		return workload.Apps(), nil
	}
	var out []workload.Profile
	for _, name := range strings.Split(s, ",") {
		p, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("widir-sweep: unknown application %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("widir-sweep: bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseProtocols(s string) ([]coherence.Protocol, error) {
	var out []coherence.Protocol
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "baseline":
			out = append(out, coherence.Baseline)
		case "widir":
			out = append(out, coherence.WiDir)
		default:
			return nil, fmt.Errorf("widir-sweep: unknown protocol %q", f)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
