// Command widirsim runs one application on one simulated manycore
// configuration and prints the run's measurements.
//
// Usage:
//
//	widirsim -app radiosity -cores 64 -protocol widir -scale 1.0
//	widirsim -app all -cores 64 -protocol both
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	var (
		appName   = flag.String("app", "radiosity", "application name (see -list) or 'all'")
		cores     = flag.Int("cores", 64, "core count")
		protocol  = flag.String("protocol", "both", "baseline, widir, or both")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Uint64("seed", 1, "workload seed")
		threshold = flag.Int("maxwired", 3, "MaxWiredSharers threshold")
		list      = flag.Bool("list", false, "list applications and exit")
		trace     = flag.Uint64("trace-line", 0, "dump protocol events for this cache-line number to stderr")
		latency   = flag.Bool("latency", false, "print the per-miss latency distribution after each run")
		confPath  = flag.String("config", "", "load the machine configuration from a JSON file (overrides -cores/-maxwired)")
		dumpConf  = flag.Bool("dump-config", false, "print the default machine configuration as JSON and exit")

		faultBER   = flag.Float64("fault-ber", 0, "wireless fault injection: per-transmission corruption probability")
		faultSeed  = flag.Uint64("fault-seed", 0, "fault schedule seed (0 derives it from -seed)")
		faultLinks = flag.String("fault-links", "", "afflicted mesh links as 'src-dst,src-dst' (empty = all, when a link rate is set)")
		faultStall = flag.Float64("fault-stall", 0, "per-packet stall probability on afflicted links")
		faultDrop  = flag.Float64("fault-drop", 0, "per-packet drop+retransmit probability on afflicted links")
		checker    = flag.Bool("checker", false, "run the SWMR/value-coherence checker during the simulation")
	)
	flag.Parse()

	links, err := fault.ParseLinks(*faultLinks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "widirsim: %v\n", err)
		os.Exit(1)
	}
	if len(links) > 0 && *faultStall == 0 && *faultDrop == 0 {
		fmt.Fprintln(os.Stderr, "widirsim: -fault-links needs -fault-stall or -fault-drop to inject anything")
		os.Exit(1)
	}
	fcfg := fault.Config{
		Seed:         *faultSeed,
		WirelessBER:  *faultBER,
		LinkStallPct: *faultStall,
		LinkDropPct:  *faultDrop,
		Links:        links,
	}

	if *dumpConf {
		if err := dumpConfig(os.Stdout, *cores); err != nil {
			fmt.Fprintf(os.Stderr, "widirsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, p := range workload.Apps() {
			fmt.Printf("%-14s paper MPKI %.2f\n", p.Name, p.PaperMPKI)
		}
		return
	}

	var apps []workload.Profile
	if *appName == "all" {
		apps = workload.Apps()
	} else {
		p, ok := workload.ByName(*appName)
		if !ok {
			fmt.Fprintf(os.Stderr, "widirsim: unknown application %q (try -list)\n", *appName)
			os.Exit(1)
		}
		apps = []workload.Profile{p}
	}

	var protos []coherence.Protocol
	switch *protocol {
	case "baseline":
		protos = []coherence.Protocol{coherence.Baseline}
	case "widir":
		protos = []coherence.Protocol{coherence.WiDir}
	case "both":
		protos = []coherence.Protocol{coherence.Baseline, coherence.WiDir}
	default:
		fmt.Fprintf(os.Stderr, "widirsim: unknown protocol %q\n", *protocol)
		os.Exit(1)
	}

	base := machine.DefaultConfig(*cores, coherence.WiDir)
	base.MaxWiredSharers = *threshold
	if *threshold > base.MaxPointers {
		base.MaxPointers = *threshold
	}
	if *confPath != "" {
		if base, err = loadConfig(*confPath, base); err != nil {
			fmt.Fprintf(os.Stderr, "widirsim: %v\n", err)
			os.Exit(1)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tprotocol\tcycles\tinstructions\tIPC/core\tMPKI\tmem-stall%\twireless writes\tS->W\tW->S\tcoll.prob\tenergy(uJ)")
	for _, app := range apps {
		app = app.Scale(*scale)
		for _, p := range protos {
			cfg := base
			cfg.Protocol = p // the -protocol flag selects the protocol, even over -config
			if *trace != 0 {
				cfg.LineLog = &obs.LineLog{Line: addrspace.Line(*trace), W: os.Stderr}
			}
			cfg.Fault = fcfg
			cfg.EnableChecker = cfg.EnableChecker || *checker
			sys, err := machine.NewSystem(cfg, workload.Program(app, cfg.Nodes, *seed))
			if err != nil {
				fmt.Fprintf(os.Stderr, "widirsim: %v\n", err)
				os.Exit(1)
			}
			r, err := sys.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "widirsim: %s/%s: %v\n", app.Name, p, err)
				os.Exit(1)
			}
			ipc := float64(r.Retired) / float64(r.Cycles) / float64(cfg.Nodes)
			stall := 100 * float64(r.MemStallCycles) / float64(r.Cycles*uint64(cfg.Nodes))
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%.2f\t%.0f%%\t%d\t%d\t%d\t%.2f%%\t%.1f\n",
				app.Name, p, r.Cycles, r.Retired, ipc, r.MPKI(), stall,
				r.WirelessWrites, r.SToW, r.WToS, 100*r.CollisionProb, r.EnergyPJ/1e6)
			if inj := sys.Injector(); inj != nil {
				fmt.Fprintf(os.Stderr, "widirsim: %s/%s faults (%s): corrupted=%d tx-failures=%d W->S-demotions=%d link-delays=%d dir-delays=%d\n",
					app.Name, p, inj.Describe(), r.WirelessCorrupted, r.WirelessTxFailures,
					r.FaultDemotions, r.LinkFaultDelays, r.DirFaultDelays)
			}
			if *latency {
				tw.Flush()
				fmt.Printf("  miss latency (cycles): %s\n", r.MissLatency)
			}
		}
	}
	tw.Flush()
}

// dumpConfig writes the default machine configuration for the given
// core count as indented JSON, the format -config reads back.
func dumpConfig(w io.Writer, cores int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(machine.DefaultConfig(cores, coherence.WiDir))
}

// loadConfig reads a JSON machine configuration over base: fields the
// file names replace base's, the rest keep their value. A field the
// Config type does not have is an error, so a file naming a removed
// option fails instead of silently running without it.
func loadConfig(path string, base machine.Config) (machine.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return machine.Config{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return machine.Config{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if dec.More() {
		return machine.Config{}, fmt.Errorf("parsing %s: trailing data after the configuration", path)
	}
	return base, nil
}
