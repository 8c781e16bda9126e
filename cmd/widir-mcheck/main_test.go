package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/protomodel"
)

func TestSmallModelClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-l1", "2", "-op-budget", "4", "-check", "-stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"explored ", "conform    clean", "swmr       clean", "liveness   clean", "coverage "} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-l1", "9"}, &out, &errb); code != 2 {
		t.Errorf("invalid -l1: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, &out, &errb); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code := run([]string{"-spec", "/nonexistent"}, &out, &errb); code != 2 {
		t.Errorf("bad spec dir: exit %d, want 2", code)
	}
}

// TestUsageErrors: a bad -model format is a usage error, and so are the
// flags of the retired widir-model command.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "png"},
		{"-format", "dot"},
		{"-machine", "dir"},
		{"-pkg", "internal/coherence"},
		{"-json"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// checkFixture extracts the protomodel fixture package name, diffs it
// against the fixture's own spec the way the command does, and returns
// the placed findings. Paths are module-relative, as in CI.
func checkFixture(t *testing.T, name string) []analysis.Finding {
	t.Helper()
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fixture := "internal/protomodel/testdata/" + name
	impl, err := protomodel.Extract(moduleDir, filepath.Join(moduleDir, fixture), protomodel.WiDirConfig())
	if err != nil {
		t.Fatalf("extracting %s: %v", name, err)
	}
	spec, err := protomodel.LoadSpecDir(filepath.Join(moduleDir, fixture, "spec"))
	if err != nil {
		t.Fatalf("loading %s spec: %v", name, err)
	}
	return conformance(impl, spec, fixture+"/spec")
}

func TestCheckConformantFixture(t *testing.T) {
	for _, f := range checkFixture(t, "conformant") {
		t.Errorf("unexpected finding: %s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
	}
}

// TestCheckMissingArmFixture: the fixture lacks the directory's
// DO GetS -> DS arm, so the spec row is unimplemented and the
// fall-through self-loop unspecified. Each finding must be placed at a
// line of a file of the module: the spec row under the -spec directory,
// the self-loop in the fixture's source.
func TestCheckMissingArmFixture(t *testing.T) {
	want := map[string]string{
		"unimplemented [dir] DO GetS -> DS": "internal/protomodel/testdata/missingarm/spec/dir.widirspec",
		"unspecified [dir] DO GetS -> DO":   "internal/protomodel/testdata/missingarm/missingarm.go",
	}
	for _, f := range checkFixture(t, "missingarm") {
		key := f.Rule + " " + f.Message
		file, ok := want[key]
		if !ok {
			continue
		}
		delete(want, key)
		if f.Pos.Filename != file || f.Pos.Line <= 0 {
			t.Errorf("%s placed at %s:%d, want a line of %s", key, f.Pos.Filename, f.Pos.Line, file)
		}
		if _, err := os.Stat(filepath.Join("..", "..", f.Pos.Filename)); err != nil {
			t.Errorf("%s names no file of the module: %v", key, err)
		}
	}
	for key := range want {
		t.Errorf("missing finding %q", key)
	}
}

// TestCheckRepoAgainstEmbeddedSpec: internal/coherence conforms to the
// embedded spec, without exploring anything.
func TestCheckRepoAgainstEmbeddedSpec(t *testing.T) {
	impl, err := extract()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protomodel.EmbeddedSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range conformance(impl, spec, "") {
		t.Errorf("unexpected finding: %s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
	}
}

// TestModelOutput: -model prints the model extracted from
// internal/coherence, both machines, and explores nothing.
func TestModelOutput(t *testing.T) {
	for format, want := range map[string][]string{
		"text": {"machine dir:", "machine l1:", "internal/coherence/home.go:"},
		"dot":  {`digraph "dir"`, `digraph "l1"`},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-model", format}, &out, &errb); code != 0 {
			t.Fatalf("-model %s: exit %d, stderr: %s", format, code, errb.String())
		}
		s := out.String()
		for _, w := range want {
			if !strings.Contains(s, w) {
				t.Errorf("-model %s output missing %q", format, w)
			}
		}
		if strings.Contains(s, "explored ") {
			t.Errorf("-model %s explored the model:\n%s", format, s)
		}
	}
}

// runMutatedSpec runs the checker on a spec directory missing the W->S
// commit row, which the code implements, and returns the run's stdout.
func runMutatedSpec(t *testing.T, extra ...string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "internal", "protomodel", "spec", "dir.widirspec"))
	if err != nil {
		t.Fatalf("reading spec: %v", err)
	}
	var kept []string
	dropped := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "busy:w-to-s WirDwgrAck") {
			dropped = true
			continue
		}
		kept = append(kept, line)
	}
	if !dropped {
		t.Fatal("spec row busy:w-to-s WirDwgrAck not found (spec layout changed?)")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dir.widirspec"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	l1, err := os.ReadFile(filepath.Join("..", "..", "internal", "protomodel", "spec", "l1.widirspec"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "l1.widirspec"), l1, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	args := append([]string{"-l1", "2", "-values", "1", "-op-budget", "5", "-check", "-spec", dir}, extra...)
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	return out.String()
}

// TestMutatedSpecFails drives the seeded-violation path end to end: a
// spec missing the W->S commit row must produce a conformance finding,
// still explore, exit 1 under -check, print a counterexample, and write
// replayable trace artifacts.
func TestMutatedSpecFails(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "cex.jsonl")
	perfetto := filepath.Join(dir, "cex.perfetto.json")
	s := runMutatedSpec(t, "-trace", trace, "-perfetto", perfetto)
	for _, want := range []string{
		"[unspecified] [dir] busy:w-to-s WirDwgrAck -> DS", "conform    1 finding(s)",
		"explored ", "counterexample (", "relation",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	for _, p := range []string{trace, perfetto} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestFindingsMatchProblemMatcher: every conformance finding line must
// match the regexp of CI's problem matcher, or it never becomes a PR
// annotation, and must name a file that exists.
func TestFindingsMatchProblemMatcher(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "problem-matchers", "widir.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &m); err != nil || len(m.ProblemMatcher) == 0 || len(m.ProblemMatcher[0].Pattern) == 0 {
		t.Fatalf("problem matcher unreadable: %v", err)
	}
	re := regexp.MustCompile(m.ProblemMatcher[0].Pattern[0].Regexp)

	s := runMutatedSpec(t)
	findings := strings.Split(s[:strings.Index(s, "explored ")], "\n")
	findings = findings[:len(findings)-1] // the text before "explored" ends in a newline
	if len(findings) == 0 {
		t.Fatalf("no finding printed:\n%s", s)
	}
	for _, line := range findings {
		sub := re.FindStringSubmatch(line)
		if sub == nil {
			t.Errorf("finding does not match the problem matcher: %q", line)
			continue
		}
		if _, err := os.Stat(filepath.Join("..", "..", sub[1])); err != nil {
			t.Errorf("finding names no file of the module: %q", line)
		}
	}
}
