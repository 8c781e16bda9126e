// Command widirsim runs applications on simulated manycore
// configurations and prints each run's measurements. Every list flag
// (-app, -cores, -protocol, -maxwired) takes comma-separated values;
// the runs are the cartesian product, fanned across a worker pool and
// printed in cartesian order (application, cores, protocol, threshold),
// as a table or, with -csv, one CSV row per run. Baseline runs only the
// first threshold: MaxWiredSharers is a WiDir knob.
//
// Every machine field beyond core count, threshold and protocol (the
// fault schedule, the checker, cache sizes, ...) is set with -config: a
// JSON machine.Config, in the -dump-config format or any subset of its
// fields, decoded over each run's configuration. A file that names the
// machine size (Nodes, MeshW, MeshH) or MaxWiredSharers fixes that axis,
// so it takes a single -cores or -maxwired value; -protocol always wins.
//
// With -events or -perfetto, each run also captures a cycle-stamped
// event trace into a ring of -buf events, prints its wired-vs-wireless
// request-latency summary, and exports the events kept by -core,
// -class and -trace-line: filtered JSONL for scripting and Chrome
// trace-event JSON for ui.perfetto.dev. A traced run needs one
// application, one core count and one threshold; when both protocols
// run, file names get a -baseline / -widir suffix before the extension.
//
// With -trace-line, each run also streams that line's events (narrowed
// by -core and -class) to stderr as JSONL in the -events schema, one
// run after another in job order.
//
// Usage:
//
//	widirsim -app radiosity -cores 64 -protocol widir -scale 1.0
//	widirsim -app all -cores 64 -protocol both
//	widirsim -app radiosity,barnes -cores 16,32,64 -maxwired 2,3,4 -csv > sweep.csv
//	widirsim -app fmm -cores 16 -scale 0.1 -protocol both \
//	    -events trace.jsonl -perfetto trace.json
//	widirsim -app fmm -cores 16,32 -config faults.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/addrspace"
	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one point of the cartesian product: a scaled application on a
// complete machine configuration.
type job struct {
	label string
	app   workload.Profile
	cfg   machine.Config
}

// outcome is one job's result plus everything it wrote for stderr,
// held back so output prints in job order whatever the pool width.
type outcome struct {
	res    *machine.Result
	ring   *obs.RingSink
	stderr bytes.Buffer
	err    error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("widirsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appFlag   = fs.String("app", "radiosity", "comma-separated applications (see -list) or 'all'")
		coresFlag = fs.String("cores", "64", "comma-separated core counts")
		protoFlag = fs.String("protocol", "both", "comma-separated protocols: baseline, widir, or both")
		thFlag    = fs.String("maxwired", "3", "comma-separated MaxWiredSharers thresholds (WiDir runs)")
		scale     = fs.Float64("scale", 1.0, "workload scale factor")
		seed      = fs.Uint64("seed", 1, "workload seed")
		parallel  = fs.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
		csv       = fs.Bool("csv", false, "print one CSV row per run instead of the table")
		list      = fs.Bool("list", false, "list applications and exit")
		traceLine = fs.Uint64("trace-line", 0, "stream this cache-line number's events to stderr as JSONL, and keep only its events in trace exports")
		latency   = fs.Bool("latency", false, "print the per-miss latency distribution after each run")
		confPath  = fs.String("config", "", "JSON machine configuration decoded over each run's: the fields it names (faults, checker, ...) override -cores/-maxwired, not -protocol")
		dumpConf  = fs.Bool("dump-config", false, "print the default machine configuration as JSON and exit")

		events   = fs.String("events", "", "capture a trace and write the kept events as JSONL to this file ('-' = stdout)")
		perfetto = fs.String("perfetto", "", "capture a trace and write the kept events as Chrome trace-event JSON to this file")
		bufCap   = fs.Int("buf", 1<<20, "trace ring capacity in events (oldest evicted when full)")
		core     = fs.Int("core", -1, "keep only trace events touching this core (-1 = all)")
		class    = fs.String("class", "", "comma-separated trace event classes/kinds to keep (empty = all): "+strings.Join(obs.GroupNames(), ", "))
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "widirsim: %v\n", err)
		return 1
	}

	if *list {
		for _, p := range workload.Apps() {
			fmt.Fprintf(stdout, "%-14s paper MPKI %.2f\n", p.Name, p.PaperMPKI)
		}
		return 0
	}
	cores, err := parseInts("-cores", *coresFlag)
	if err != nil {
		return fail(err)
	}
	if *dumpConf {
		if err := dumpConfig(stdout, cores[0]); err != nil {
			return fail(err)
		}
		return 0
	}
	thresholds, err := parseInts("-maxwired", *thFlag)
	if err != nil {
		return fail(err)
	}
	apps, err := parseApps(*appFlag)
	if err != nil {
		return fail(err)
	}
	protos, err := parseProtocols(*protoFlag)
	if err != nil {
		return fail(err)
	}
	if !(*scale > 0) {
		return fail(fmt.Errorf("-scale %v must be positive", *scale))
	}

	filter := obs.NewFilter()
	if filter.Kinds, err = obs.ParseKinds(*class); err != nil {
		return fail(err)
	}
	if *core >= 0 {
		filter.Node = int32(*core)
	}
	if *traceLine != 0 {
		filter.Line = addrspace.Line(*traceLine)
	}
	traced := *events != "" || *perfetto != ""
	if traced && (len(apps) > 1 || len(cores) > 1 || len(thresholds) > 1) {
		return fail(fmt.Errorf("a traced run needs one application, one core count and one threshold"))
	}
	if *bufCap < 1 {
		return fail(fmt.Errorf("-buf %d must be positive", *bufCap))
	}

	var conf []byte
	if *confPath != "" {
		if conf, err = os.ReadFile(*confPath); err != nil {
			return fail(err)
		}
	}
	for i := range apps {
		apps[i] = apps[i].Scale(*scale)
	}
	jobs, err := jobsFor(apps, cores, protos, thresholds, conf)
	if err != nil {
		return fail(fmt.Errorf("-config %s: %w", *confPath, err))
	}
	if *events == "-" && len(jobs) > 1 {
		return fail(fmt.Errorf("-events - takes a single run; name a file to export %d runs", len(jobs)))
	}

	// Each job's error travels in its outcome rather than through Map,
	// so a failure reports in job order whatever the pool width.
	outs, _ := exp.Map(exp.NewRunner(*parallel), len(jobs), func(i int) (*outcome, error) {
		j, o := jobs[i], &outcome{}
		cfg := j.cfg
		if traced {
			o.ring = obs.NewRingSink(*bufCap)
			cfg.Trace = o.ring
		}
		if *traceLine != 0 {
			stream := filter.Sink(obs.NewJSONLSink(&o.stderr))
			if cfg.Trace != nil {
				stream = obs.Tee{cfg.Trace, stream}
			}
			cfg.Trace = stream
		}
		sys, err := machine.NewSystem(cfg, workload.Program(j.app, cfg.Nodes, *seed))
		if err != nil {
			o.err = err
			return o, nil
		}
		r, err := sys.Run()
		if o.res, o.err = r, err; err == nil {
			if inj := sys.Injector(); inj != nil {
				fmt.Fprintf(&o.stderr, "widirsim: %s faults (%s): corrupted=%d tx-failures=%d W->S-demotions=%d link-delays=%d dir-delays=%d\n",
					j.label, inj.Describe(), r.WirelessCorrupted, r.WirelessTxFailures,
					r.FaultDemotions, r.LinkFaultDelays, r.DirFaultDelays)
			}
		}
		return o, nil
	})
	// A failed run is reported and left out of the table; the runs that
	// finished still print, and the exit status says one failed.
	failed := false
	for i, o := range outs {
		stderr.Write(o.stderr.Bytes())
		if o.err != nil {
			fmt.Fprintf(stderr, "widirsim: %s: %v\n", jobs[i].label, o.err)
			failed = true
			continue
		}
		if traced {
			suffix := ""
			if len(protos) > 1 {
				suffix = "-" + strings.ToLower(jobs[i].cfg.Protocol.String())
			}
			if err := exportTrace(stdout, jobs[i].label, o, filter, *events, *perfetto, suffix); err != nil {
				return fail(err)
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	if *csv {
		fmt.Fprintln(stdout, "app,protocol,cores,maxwired,cycles,instructions,mpki,memstall_frac,wireless_writes,stow,wtos,collision_prob,energy_pj")
	} else {
		fmt.Fprintln(tw, "app\tprotocol\tcores\tmaxwired\tcycles\tinstructions\tIPC/core\tMPKI\tmem-stall%\twireless writes\tS->W\tW->S\tcoll.prob\tenergy(uJ)")
	}
	for i, o := range outs {
		j, r := jobs[i], o.res
		if o.err != nil {
			continue
		}
		n := uint64(j.cfg.Nodes)
		if *csv {
			stall := float64(r.MemStallCycles) / float64(r.Cycles*n)
			fmt.Fprintf(stdout, "%s,%s,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%.4f,%.0f\n",
				j.app.Name, j.cfg.Protocol, n, j.cfg.MaxWiredSharers, r.Cycles, r.Retired, r.MPKI(), stall,
				r.WirelessWrites, r.SToW, r.WToS, r.CollisionProb, r.EnergyPJ)
		} else {
			ipc := float64(r.Retired) / float64(r.Cycles) / float64(n)
			stall := 100 * float64(r.MemStallCycles) / float64(r.Cycles*n)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.0f%%\t%d\t%d\t%d\t%.2f%%\t%.1f\n",
				j.app.Name, j.cfg.Protocol, n, j.cfg.MaxWiredSharers, r.Cycles, r.Retired, ipc, r.MPKI(), stall,
				r.WirelessWrites, r.SToW, r.WToS, 100*r.CollisionProb, r.EnergyPJ/1e6)
		}
		if *latency {
			tw.Flush()
			fmt.Fprintf(stdout, "  miss latency (cycles): %s\n", r.MissLatency)
		}
	}
	tw.Flush()
	if failed {
		return 1
	}
	return 0
}

// configFor is the default machine for n cores with WiDir threshold th.
func configFor(n, th int) machine.Config {
	cfg := machine.DefaultConfig(n, coherence.WiDir)
	cfg.MaxWiredSharers = th
	if th > cfg.MaxPointers {
		cfg.MaxPointers = th
	}
	return cfg
}

// jobsFor enumerates every run up front, so the worker pool can fan
// them out while the output still prints in cartesian order. conf, a
// -config file's JSON (nil for none), is decoded over each job's
// configFor. A field conf names is the same in every job, so conf may
// not name a field that a -cores or -maxwired sweep varies; the
// protocol is always the job's.
func jobsFor(apps []workload.Profile, cores []int, protos []coherence.Protocol, thresholds []int, conf []byte) ([]job, error) {
	if conf != nil {
		var named struct{ Nodes, MeshW, MeshH, MaxWiredSharers json.RawMessage }
		if err := json.Unmarshal(conf, &named); err != nil {
			return nil, err
		}
		if len(cores) > 1 && (named.Nodes != nil || named.MeshW != nil || named.MeshH != nil) {
			return nil, fmt.Errorf("names the machine size (Nodes, MeshW or MeshH), so it takes one -cores value")
		}
		if len(thresholds) > 1 && named.MaxWiredSharers != nil {
			return nil, fmt.Errorf("names MaxWiredSharers, so it takes one -maxwired value")
		}
	}
	multi := len(cores) > 1 || len(thresholds) > 1
	var jobs []job
	for _, app := range apps {
		for _, n := range cores {
			for _, p := range protos {
				ths := thresholds
				if p == coherence.Baseline {
					ths = thresholds[:1]
				}
				for _, th := range ths {
					cfg := configFor(n, th)
					if conf != nil {
						var err error
						if cfg, err = loadConfig(conf, cfg); err != nil {
							return nil, err
						}
					}
					cfg.Protocol = p
					label := app.Name + "/" + p.String()
					if multi {
						label += fmt.Sprintf(" (%d cores, maxwired %d)", n, th)
					}
					jobs = append(jobs, job{label: label, app: app, cfg: cfg})
				}
			}
		}
	}
	return jobs, nil
}

// exportTrace prints one traced run's capture counts and span summary
// and writes the events the filter keeps to each requested export:
// stdout for path "-", else the file with suffix inserted before its
// extension.
func exportTrace(stdout io.Writer, label string, o *outcome, filter obs.Filter, events, perfetto, suffix string) error {
	all := o.ring.Events()
	kept := filter.Apply(all)
	fmt.Fprintf(stdout, "%s: %d cycles, %d events captured (%d dropped), %d after filter\n",
		label, o.res.Cycles, len(all), o.ring.Dropped(), len(kept))
	obs.Summarize(obs.BuildSpans(all)).Print(stdout)
	for _, x := range []struct {
		path  string
		write func(io.Writer, []obs.Event) error
	}{{events, obs.WriteJSONL}, {perfetto, obs.WritePerfetto}} {
		if x.path == "-" {
			if err := x.write(stdout, kept); err != nil {
				return err
			}
			continue
		}
		if x.path == "" {
			continue
		}
		ext := filepath.Ext(x.path)
		path := strings.TrimSuffix(x.path, ext) + suffix + ext
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := x.write(f, kept); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

func parseApps(s string) ([]workload.Profile, error) {
	if s == "all" {
		return workload.Apps(), nil
	}
	var out []workload.Profile
	for _, name := range strings.Split(s, ",") {
		p, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown application %q (try -list)", name)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: %q is not a positive integer", flagName, f)
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
		case "both":
			out = append(out, coherence.Baseline, coherence.WiDir)
		default:
			return nil, fmt.Errorf("unknown protocol %q", f)
		}
	}
	return out, nil
}

// dumpConfig writes the default machine configuration for the given
// core count as indented JSON, the format -config reads back.
func dumpConfig(w io.Writer, cores int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(machine.DefaultConfig(cores, coherence.WiDir))
}

// loadConfig decodes a JSON machine configuration over base: fields
// the data names replace base's, the rest keep their value. A field the
// Config type does not have is an error, so a file naming a removed
// option fails instead of silently running without it.
func loadConfig(data []byte, base machine.Config) (machine.Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&base); err != nil {
		return machine.Config{}, err
	}
	if dec.More() {
		return machine.Config{}, fmt.Errorf("trailing data after the configuration")
	}
	return base, nil
}
