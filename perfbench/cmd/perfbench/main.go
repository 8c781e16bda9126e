// Command perfbench is the repository's end-to-end benchmark. It times
// the same public calls that exp.simulate and widir-mcheck make —
// workload.Program, machine.NewSystem, System.Run, the embedded spec
// load, mcheck.New and Checker.Explore — serially, in one process per
// workload, and checks every op's output against fingerprints.json.
//
// Usage (perfbench/run.py builds the binary and forwards these flags):
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out dir]
//	perfbench -workload <name> -record perfbench/cmd/perfbench/fingerprints.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. perfbench/NOTES.md
// defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/mcheck"
	"repro/internal/obs"
	"repro/internal/protomodel"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minSetups is the least number of set-up samples setup_s is the
// median of; workloads with fewer ops per run set up extra times.
const minSetups = 41

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see NOTES.md)")
	seed := fs.Int64("seed", 1, "input seed; selects one of the recorded input sets")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds; at least one pass always runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := fs.String("out", ".bench_build/trace", "directory for the traced run's spans, CPU profile and pprof rollup")
	record := fs.String("record", "", "record the fingerprints of every pool seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pass, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if *record != "" {
		if err := recordFingerprints(*record, *name, pass, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	want, err := loadFingerprints(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	s := poolSeed(*seed)
	b := &bench{name: *name, t0: time.Now(), want: want, stderr: stderr}
	ops := pass(s)
	calib0 := calibrate()
	b.check(b.op(ops[0], -1), s) // untimed warm-up

	var metrics map[string]metric
	if *trace == 0 {
		passes := b.measure(ops, s, *seconds)
		b.fillSetups(ops)
		metrics = endToEnd(b, passes)
		for i, p := range passes {
			fmt.Fprintf(stdout, "perfbench: pass %d run %.4fs\n", i, p.runS(nil))
		}
	} else {
		metrics, err = b.traced(ops, s, *seconds, *name, *seed, *outDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	calib1 := calibrate()
	if *trace == 1 {
		metrics["host.calib_s"] = metric{(calib0 + calib1) / 2, "s"}
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d -> input set %d, %d ops, %d failed, calib %.4fs -> %.4fs\n",
		*name, *seed, s, b.attempted, b.failed, calib0, calib1)

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Parent is the enclosing span's ID, -1 at the top.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// sample is the outcome of one op.
type sample struct {
	op     op
	setup  float64 // seconds in the set-up calls
	run    float64 // seconds in System.Run or Checker.Explore
	allocs uint64  // heap objects allocated by the op
	bytes  uint64  // heap bytes allocated by the op
	gcs    uint32  // collections that ran during the op
	res    *machine.Result
	mres   *mcheck.Result
	err    error
}

// bench holds one run's spans, set-up samples and outcome counts.
type bench struct {
	name   string // workload
	t0     time.Time
	spans  []span
	setups []float64
	sink   obs.Sink // nil except in the traced pass
	want   map[string]fingerprint
	stderr io.Writer

	attempted, failed int
}

// timed runs fn inside a span and returns its duration in seconds.
func (b *bench) timed(name string, parent int, fn func()) float64 {
	id := b.begin(name, parent)
	fn()
	return b.end(id)
}

func (b *bench) begin(name string, parent int) int {
	b.spans = append(b.spans, span{ID: len(b.spans), Parent: parent, Name: name,
		Start: time.Since(b.t0).Seconds()})
	return len(b.spans) - 1
}

func (b *bench) end(id int) float64 {
	b.spans[id].End = time.Since(b.t0).Seconds()
	return b.spans[id].seconds()
}

// op runs one op: a forced collection that also returns free memory to
// the OS first, so every op starts from the same heap state, and
// allocation accounting outside the timed calls.
func (b *bench) op(o op, parent int) sample {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := sample{op: o}
	id := b.begin("op "+o.name(), parent)
	switch o.kind {
	case opSim:
		var sys *machine.System
		s.setup, sys, s.err = b.simSetup(o, id)
		if s.err == nil {
			b.setups = append(b.setups, s.setup)
			s.run = b.timed("machine.System.Run", id, func() { s.res, s.err = sys.Run() })
		}
	case opMcheck:
		var ck *mcheck.Checker
		s.setup, ck, s.err = b.mcheckSetup(id)
		if s.err == nil {
			b.setups = append(b.setups, s.setup)
			s.run = b.timed("mcheck.Checker.Explore", id, func() { s.mres, s.err = ck.Explore() })
		}
	}
	b.end(id)
	runtime.ReadMemStats(&m1)
	s.allocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcs = m1.NumGC - m0.NumGC
	return s
}

func (b *bench) simSetup(o op, parent int) (float64, *machine.System, error) {
	cfg := machine.DefaultConfig(cores, o.proto)
	cfg.Trace = b.sink
	var prog []cpu.InstrSource
	t := b.timed("workload.Program", parent, func() { prog = workload.Program(o.prof, cores, o.seed) })
	var sys *machine.System
	var err error
	t += b.timed("machine.NewSystem", parent, func() { sys, err = machine.NewSystem(cfg, prog) })
	return t, sys, err
}

func (b *bench) mcheckSetup(parent int) (float64, *mcheck.Checker, error) {
	var model *protomodel.Model
	var err error
	t := b.timed("protomodel.EmbeddedSpec+ModelFromSpec", parent, func() {
		var sp *protomodel.Spec
		if sp, err = protomodel.EmbeddedSpec(); err == nil {
			model = protomodel.ModelFromSpec(sp)
		}
	})
	if err != nil {
		return t, nil, err
	}
	var ck *mcheck.Checker
	t += b.timed("mcheck.New", parent, func() { ck, err = mcheck.New(mcheckConfig(), model) })
	return t, ck, err
}

// mcheckConfig is the default model with 2 L1s.
func mcheckConfig() mcheck.Config {
	cfg := mcheck.DefaultConfig()
	cfg.L1s = 2
	return cfg
}

// fillSetups tops the set-up samples up to minSetups by setting up the
// pass's ops again and discarding the result, so setup_s is a median of
// many samples even when a run holds few ops. It gives up after
// 2*minSetups attempts, which only failing set-ups can exhaust.
func (b *bench) fillSetups(ops []op) {
	for i := 0; len(b.setups) < minSetups && i < 2*minSetups; i++ {
		o := ops[i%len(ops)]
		debug.FreeOSMemory()
		id := b.begin("setup "+o.name(), -1)
		var t float64
		var err error
		if o.kind == opSim {
			t, _, err = b.simSetup(o, id)
		} else {
			t, _, err = b.mcheckSetup(id)
		}
		b.end(id)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintf(b.stderr, "perfbench: set-up of %s: %v\n", o.name(), err)
			continue
		}
		b.setups = append(b.setups, t)
	}
}

// passResult is one complete pass over a workload's op list.
type passResult struct{ samples []sample }

// measure repeats passes until the next one would overrun the budget;
// the first pass always runs to completion.
func (b *bench) measure(ops []op, s uint64, seconds int) []passResult {
	start := time.Now()
	var passes []passResult
	for {
		t := time.Now()
		passes = append(passes, b.pass(ops, s))
		took := time.Since(t)
		if time.Since(start)+took > time.Duration(seconds)*time.Second {
			return passes
		}
	}
}

func (b *bench) pass(ops []op, s uint64) passResult {
	id := b.begin("pass", -1)
	p := passResult{samples: make([]sample, len(ops))}
	for i, o := range ops {
		p.samples[i] = b.op(o, id)
		b.check(p.samples[i], s)
	}
	b.end(id)
	if err := b.checkFig8(p, s); err != nil {
		b.failed++
		fmt.Fprintln(b.stderr, "perfbench:", err)
	}
	return p
}

// check counts the op and compares its output with the recorded
// fingerprint; an error, a violation or a mismatch fails the op.
func (b *bench) check(s sample, seed uint64) {
	b.attempted++
	err := s.err
	if err == nil {
		err = s.verify(b.want)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: %s (input set %d): %v\n", s.op.name(), seed, err)
	}
}

// runS is the pass's host seconds in System.Run / Checker.Explore,
// optionally restricted to one protocol's sims.
func (p passResult) runS(keep func(op) bool) float64 {
	var t float64
	for _, s := range p.samples {
		if keep == nil || keep(s.op) {
			t += s.run
		}
	}
	return t
}

// work is the pass's simulated instructions, or explored states.
func (p passResult) work() float64 {
	var w float64
	for _, s := range p.samples {
		if s.res != nil {
			w += float64(s.res.Retired)
		}
		if s.mres != nil {
			w += float64(s.mres.States)
		}
	}
	return w
}

func endToEnd(b *bench, passes []passResult) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(b.setups), "s"},
		"run_s":       {medianOf(passes, func(p passResult) float64 { return p.runS(nil) }), "s"},
		"work_per_s":  {medianOf(passes, func(p passResult) float64 { return ratio(p.work(), p.runS(nil)) }), "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

func medianOf(passes []passResult, f func(passResult) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var calibSink uint64

// calibrate times a fixed pure-Go CPU loop, so host speed drift shows
// in the record separately from the program's.
func calibrate() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t).Seconds()
}

// traced runs the per-layer measurement: untraced passes for the
// timings and counts, one more untraced pass under a CPU profile for
// the host shares, then one pass with a counting obs.Sink attached for
// the event counts and the tracing overhead.
func (b *bench) traced(ops []op, s uint64, seconds int, name string, seed int64, outDir string) (map[string]metric, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	passes := b.measure(ops, s, seconds)
	b.fillSetups(ops)
	measured := b.spans // the untraced, unprofiled calls

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	b.pass(ops, s)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}

	// The model checker takes no obs.Sink, so mcheck-2l1 has no traced pass.
	var counts *countSink
	var tracedPass *passResult
	if ops[0].kind == opSim {
		counts = &countSink{}
		b.sink = counts
		p := b.pass(ops, s)
		b.sink = nil
		tracedPass = &p
	}
	if err := writeSpans(base+".spans.jsonl", b.spans); err != nil {
		return nil, err
	}
	shares, err := hostShares(base+".cpu.pprof", base+".top.txt")
	if err != nil {
		return nil, err
	}
	return perLayer(measured, passes, tracedPass, counts, shares), nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanMedian is the median duration of the spans with the given name.
func spanMedian(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, s.seconds())
		}
	}
	return median(v)
}

// countSink counts events by kind.
type countSink struct{ n [256]uint64 }

func (c *countSink) Emit(e obs.Event) { c.n[e.Kind]++ }

func isBaseline(o op) bool { return o.kind == opSim && o.proto == coherence.Baseline }
func isWiDir(o op) bool    { return o.kind == opSim && o.proto == coherence.WiDir }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
