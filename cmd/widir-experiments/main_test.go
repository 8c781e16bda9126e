package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadInput: an unknown experiment, a non-positive core count
// and a non-positive scale exit nonzero before any simulation runs,
// instead of running nothing, 64 cores or a degenerate program.
func TestRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig11"}, "valid: summary, motivation"},
		{"zero cores", []string{"-exp", "table4", "-cores", "0"}, "must be positive"},
		{"negative scale", []string{"-exp", "table4", "-scale", "-0.5"}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code == 0 {
				t.Fatalf("exit code 0, want nonzero; stdout:\n%s", stdout.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestCacheRerunSimulatesNothing drives the persistent cache end to
// end: a second run over the same -cache directory simulates nothing
// and prints byte-identical stdout; after one entry is truncated, a
// third run re-simulates exactly that run, evicts the corrupt entry and
// still prints the same stdout. Table VI's threshold runs use
// non-default machine configs, so they exercise custom-config keys.
func TestCacheRerunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "table6", "-apps", "radiosity,barnes", "-cores", "16", "-scale", "0.05", "-v", "-cache", dir}
	runOnce := func() (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	cold, coldErr := runOnce()
	if !strings.Contains(coldErr, "sims=10 ") {
		t.Fatalf("cold run should simulate 2 Baseline + 2x4 WiDir runs; stderr:\n%s", coldErr)
	}
	warm, warmErr := runOnce()
	if !strings.Contains(warmErr, "sims=0 ") {
		t.Fatalf("warm run re-simulated; stderr:\n%s", warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs from cold:\n%s\nvs\n%s", warm, cold)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "v*", "*.json"))
	if err != nil || len(entries) != 10 {
		t.Fatalf("want 10 cache entries, got %d (%v)", len(entries), err)
	}
	if err := os.Truncate(entries[0], 10); err != nil {
		t.Fatal(err)
	}
	healed, healedErr := runOnce()
	if !strings.Contains(healedErr, "sims=1 ") || !strings.Contains(healedErr, "corrupt=1 ") {
		t.Fatalf("truncated entry should cost exactly one re-simulation; stderr:\n%s", healedErr)
	}
	if healed != cold {
		t.Fatalf("stdout after re-simulation differs from cold:\n%s\nvs\n%s", healed, cold)
	}
}
