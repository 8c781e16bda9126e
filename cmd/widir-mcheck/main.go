// Command widir-mcheck checks the WiDir coherence protocol against the
// specification under internal/protomodel/spec/. First conformance
// (DESIGN.md §13): it extracts the directory FSM (internal/coherence/
// home.go) and the private-cache FSM (l1.go) from the source, diffs them
// against the spec, and prints each divergence as a
// "file:line:col: [kind] [machine] transition" finding. Then model
// checking (DESIGN.md §15): it explores every reachable state of a small
// configurable model — one directory, 2-4 L1s, 1-2 lines, symbolic
// values, a bounded wired network and the wireless broadcast plane —
// validating every transition against the spec FSMs and checking four
// invariant families: swmr, integrity, deadlock, and liveness (EF
// quiescence plus W->S completion).
//
// Usage:
//
//	widir-mcheck [-l1 n] [-lines n] [-values n] [-reorder n]
//	             [-op-budget n] [-fault] [-dir-evict=false]
//	             [-max-states n] [-check] [-stats]
//	             [-trace out.jsonl] [-perfetto out.json] [-spec dir]
//	widir-mcheck -model text|dot
//
// With no flags it checks conformance, explores the default model (3
// L1s, one line, two values, operation budget 6 — about a million
// canonical states) and prints a verdict for conform and each family; a
// conformance finding does not stop the exploration. -check exits 1
// when either check fails; on a violation the action path is printed
// and, when -trace or -perfetto name a file, the counterexample is
// replayed through internal/obs into the same artifact formats the
// simulator emits. `make mcheck` and CI run it with -check. -model
// prints the extracted model (a table with file:line provenance, or
// one Graphviz digraph per machine) and exits. The command reads the
// source of the module it runs in.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/mcheck"
	"repro/internal/obs"
	"repro/internal/protomodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("widir-mcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := mcheck.DefaultConfig()
	l1s := fs.Int("l1", def.L1s, "number of L1 caches (2..4)")
	lines := fs.Int("lines", def.Lines, "number of cache lines (1..2)")
	values := fs.Int("values", def.Values, "distinct symbolic store values (1..3)")
	reorder := fs.Int("reorder", def.Reorder, "per-channel in-flight message bound")
	opBudget := fs.Int("op-budget", def.OpBudget, "spontaneous operation budget (1..16)")
	fault := fs.Bool("fault", false, "enable wireless-corruption fault injection")
	dirEvict := fs.Bool("dir-evict", def.DirEvict, "model directory/LLC capacity evictions")
	maxStates := fs.Int("max-states", 0, "abort beyond this many canonical states (0 = default)")
	check := fs.Bool("check", false, "exit 1 on any conformance finding or invariant violation")
	stats := fs.Bool("stats", false, "print coverage counters")
	trace := fs.String("trace", "", "on violation, write the counterexample as obs JSONL to this file")
	perfetto := fs.String("perfetto", "", "on violation, write the counterexample as a Perfetto trace to this file")
	specDir := fs.String("spec", "", "spec directory (default: the embedded internal/protomodel/spec)")
	model := fs.String("model", "", "print the model extracted from internal/coherence (text or dot) and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: widir-mcheck [-l1 n] [-lines n] [-values n] [-reorder n] [-op-budget n] [-fault] [-dir-evict=false] [-max-states n] [-check] [-stats] [-trace f] [-perfetto f] [-spec dir] | -model text|dot\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "widir-mcheck:", err)
		return 2
	}

	if *model != "" {
		if *model != "text" && *model != "dot" {
			return fail(fmt.Errorf("unknown -model format %q (want text or dot)", *model))
		}
		impl, err := extract()
		if err != nil {
			return fail(err)
		}
		if *model == "text" {
			fmt.Fprint(stdout, impl.Text())
		} else {
			fmt.Fprint(stdout, impl.Dot())
		}
		return 0
	}

	spec, err := loadSpec(*specDir)
	if err != nil {
		return fail(err)
	}
	cfg := mcheck.Config{
		L1s: *l1s, Lines: *lines, Values: *values, Reorder: *reorder,
		OpBudget: *opBudget, MaxWiredSharers: def.MaxWiredSharers,
		UpdateCountMax: def.UpdateCountMax, FaultDemoteAfter: def.FaultDemoteAfter,
		Fault: *fault, DirEvict: *dirEvict, MaxStates: *maxStates,
	}
	ck, err := mcheck.New(cfg, protomodel.ModelFromSpec(spec))
	if err != nil {
		return fail(err)
	}
	impl, err := extract()
	if err != nil {
		return fail(err)
	}
	findings := conformance(impl, spec, *specDir)
	if err := analysis.WriteFindings(stdout, findings, false); err != nil {
		return fail(err)
	}
	conform := "clean"
	if len(findings) > 0 {
		conform = fmt.Sprintf("%d finding(s)", len(findings))
	}

	start := time.Now()
	res, err := ck.Explore()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "explored %d states, %d edges (depth %d, %d quiescent) in %v\n",
		res.States, res.Edges, res.MaxDepth, res.Quiescent, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  %-10s %s\n", "conform", conform)
	for _, f := range mcheck.Families {
		fmt.Fprintf(stdout, "  %-10s %s\n", f, res.FamilyVerdicts()[f])
	}
	if *stats {
		for _, c := range res.SortedCoverage() {
			fmt.Fprintf(stdout, "  coverage %s\n", c)
		}
	}
	if !res.Clean() {
		v := res.Violation
		fmt.Fprintf(stdout, "counterexample (%d steps):\n", len(v.Path))
		for _, step := range v.Path {
			fmt.Fprintf(stdout, "  %s\n", step)
		}
		events := ck.Counterexample(v)
		if *trace != "" {
			if err := writeArtifact(*trace, events, obs.WriteJSONL); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *trace)
		}
		if *perfetto != "" {
			if err := writeArtifact(*perfetto, events, obs.WritePerfetto); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "perfetto trace written to %s\n", *perfetto)
		}
	}
	if *check && (!res.Clean() || len(findings) > 0) {
		return 1
	}
	return 0
}

// extract reads the dir and l1 machines from the source of
// internal/coherence in the enclosing module.
func extract() (*protomodel.Model, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	return protomodel.Extract(moduleDir, filepath.Join(moduleDir, "internal", "coherence"), protomodel.WiDirConfig())
}

// conformance diffs the extracted model against the spec and places
// each divergence for CI's problem matcher: code positions stay
// module-relative, spec rows ("dir.widirspec:6") go under the spec
// directory, and the opaque "spec" and "impl" markers name the spec
// directory or the package, at line 0.
func conformance(impl *protomodel.Model, spec *protomodel.Spec, specDir string) []analysis.Finding {
	specLabel := "internal/protomodel/spec"
	if specDir != "" {
		specLabel = filepath.ToSlash(specDir)
	}
	var out []analysis.Finding
	for _, f := range protomodel.Check(impl, spec) {
		fd := analysis.Finding{Rule: f.Kind, Message: fmt.Sprintf("[%s] %s", f.Machine, f.Detail)}
		fd.Pos.Filename = f.Pos
		if i := strings.LastIndexByte(f.Pos, ':'); i > 0 {
			if line, err := strconv.Atoi(f.Pos[i+1:]); err == nil {
				fd.Pos.Filename, fd.Pos.Line = f.Pos[:i], line
			}
		}
		switch {
		case fd.Pos.Filename == "spec":
			fd.Pos.Filename = specLabel
		case fd.Pos.Filename == "impl":
			fd.Pos.Filename = "internal/coherence"
		case strings.HasSuffix(fd.Pos.Filename, ".widirspec"):
			fd.Pos.Filename = specLabel + "/" + fd.Pos.Filename
		}
		out = append(out, fd)
	}
	return out
}

func loadSpec(dir string) (*protomodel.Spec, error) {
	if dir == "" {
		return protomodel.EmbeddedSpec()
	}
	return protomodel.LoadSpecDir(dir)
}

func writeArtifact(path string, events []obs.Event, write func(io.Writer, []obs.Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
