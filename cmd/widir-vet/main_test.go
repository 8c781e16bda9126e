package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const seedmut = "../../internal/vet/testdata/seedmut"

// TestRepoCertificateIsClean is the certificate itself: the repository
// tick path matches the checked-in ledger.
func TestRepoCertificateIsClean(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-check"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "matches the shared-state ledger") {
		t.Errorf("stdout = %q, want certificate message", out.String())
	}
}

// TestSeededMutationFails drives the whole pipeline end to end: a
// module with an unregistered package-level write reachable from Tick
// must fail -check with vetunregistered findings.
func TestSeededMutationFails(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-module", seedmut, "-check"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"vetunregistered", "seedmut.hiddenPool", "seedmut.Sim.n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr = %q, want finding count", errb.String())
	}
}

func TestSeededMutationJSON(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-module", seedmut, "-check", "-json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings, got %d", len(findings))
	}
	for _, f := range findings {
		if f["rule"] != "vetunregistered" {
			t.Errorf("rule = %v", f["rule"])
		}
		if f["file"] != "sim.go" || f["line"].(float64) == 0 {
			t.Errorf("finding position = %v:%v, want sim.go with a line", f["file"], f["line"])
		}
	}
}

func TestCertificateView(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"repro/internal/engine.Wheel.head",
		"needs-partition",
		"domain-local",
		"barrier-mediated",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("certificate view missing %q", want)
		}
	}
	if strings.Contains(got, "UNREGISTERED") {
		t.Error("certificate view reports UNREGISTERED state on a clean tree")
	}
}

func TestEffectsOutput(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-effects", `Queue\)\.RunDue$`}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "tick-path") {
		t.Errorf("RunDue should be on the tick path:\n%s", got)
	}
	if !strings.Contains(got, "repro/internal/engine.Queue") {
		t.Errorf("RunDue effects should mention Queue state:\n%s", got)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-check", "-update"}, &out, &errb); code != 2 {
		t.Errorf("-check -update: exit = %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-nosuchflag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-effects", "(("}, &out, &errb); code != 2 {
		t.Errorf("bad regexp: exit = %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-module", "/does/not/exist"}, &out, &errb); code != 2 {
		t.Errorf("bad module: exit = %d, want 2", code)
	}
}
