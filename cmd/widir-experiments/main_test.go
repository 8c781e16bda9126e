package main

import (
	"bytes"
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
