package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/workload"
)

// writeConfig stores data as a config file in a test directory.
func writeConfig(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "machine.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDumpConfigRoundTrips: the -dump-config output loads back through
// -config as exactly the configuration it was dumped from, whatever the
// base it is loaded over.
func TestDumpConfigRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpConfig(&buf, 16); err != nil {
		t.Fatal(err)
	}
	got, err := loadConfig(writeConfig(t, buf.Bytes()), machine.DefaultConfig(64, coherence.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if want := machine.DefaultConfig(16, coherence.WiDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the configuration:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadConfigRejectsUnknownField: a saved config naming a field the
// machine no longer has (here the removed flit-level NoC switch) is an
// error, not a run on a silently different machine.
func TestLoadConfigRejectsUnknownField(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpConfig(&buf, 16); err != nil {
		t.Fatal(err)
	}
	data := strings.Replace(buf.String(), "{", "{\n  \"FlitLevelNoC\": true,", 1)
	_, err := loadConfig(writeConfig(t, []byte(data)), machine.DefaultConfig(16, coherence.WiDir))
	if err == nil || !strings.Contains(err.Error(), "FlitLevelNoC") {
		t.Fatalf("loadConfig error = %v, want an unknown-field error naming FlitLevelNoC", err)
	}
}

// FuzzLoadConfig: whatever bytes a -config file holds, loadConfig over
// the 16-core default and NewSystem on what it loads return an error or
// a machine, never a panic. Configurations whose eager allocations would
// swamp the fuzzer (more than 64 nodes, an L1 over 1 MiB, a core queue
// over 1,024 entries, an LLC slice over 65,536 entries) are not built.
func FuzzLoadConfig(f *testing.F) {
	var dump bytes.Buffer
	if err := dumpConfig(&dump, 16); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	f.Add(dump.Bytes()[:dump.Len()/2])
	f.Add([]byte(strings.Replace(dump.String(), "{", "{\n  \"FlitLevelNoC\": true,", 1)))
	f.Add([]byte(`{"L1SizeBytes": 384, "L1Ways": 2}`)) // 3 sets
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := loadConfig(writeConfig(t, data), machine.DefaultConfig(16, coherence.WiDir))
		if err != nil {
			return
		}
		k := cfg.Core
		if cfg.Nodes > 64 || cfg.L1SizeBytes > 1<<20 || cfg.LLCEntriesPerSlice > 1<<16 ||
			k.IssueWidth > 1024 || k.ROBSize > 1024 || k.LoadQueue > 1024 || k.WriteBuffer > 1024 {
			return
		}
		var srcs []cpu.InstrSource
		if cfg.Nodes > 0 {
			srcs = workload.Program(workload.Profile{Name: "tiny", Steps: 4, ReuseLines: 2}, cfg.Nodes, 1)
		}
		if sys, err := machine.NewSystem(cfg, srcs); (sys == nil) == (err == nil) {
			t.Fatalf("NewSystem returned system %v and error %v", sys != nil, err)
		}
	})
}

// runSim runs the command in-process and returns its exit code and
// output streams.
func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSweepIndependentOfParallelism: a 2 apps × 2 core counts × 2
// thresholds sweep prints the same CSV at pool widths 1 and 4, one row
// per run in cartesian order (app, cores, protocol, threshold), with
// Baseline running only the first threshold.
func TestSweepIndependentOfParallelism(t *testing.T) {
	args := []string{"-app", "radiosity,fmm", "-cores", "4,16", "-maxwired", "2,3", "-scale", "0.05", "-csv"}
	code, serial, stderr := runSim(t, append(args, "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if _, wide, _ := runSim(t, append(args, "-parallel", "4")...); wide != serial {
		t.Fatalf("-parallel 4 output differs from -parallel 1:\n%s\nvs\n%s", wide, serial)
	}
	var want []string
	for _, app := range []string{"radiosity", "fmm"} {
		for _, n := range []string{"4", "16"} {
			want = append(want, app+",Baseline,"+n+",2", app+",WiDir,"+n+",2", app+",WiDir,"+n+",3")
		}
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if lines[0] != "app,protocol,cores,maxwired,cycles,instructions,mpki,memstall_frac,wireless_writes,stow,wtos,collision_prob,energy_pj" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines)-1 != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(lines)-1, len(want), serial)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i+1], w+",") {
			t.Errorf("row %d = %q, want prefix %q", i, lines[i+1], w)
		}
	}
}

// TestTraceLineIndependentOfParallelism: the -trace-line log of a
// two-protocol run prints in job order, so stderr is identical whether
// the runs are serial or concurrent.
func TestTraceLineIndependentOfParallelism(t *testing.T) {
	args := []string{"-app", "fmm", "-cores", "16", "-scale", "0.05", "-protocol", "both", "-trace-line", "0x40002"}
	code, _, serial := runSim(t, append(args, "-parallel", "1")...)
	if code != 0 || serial == "" {
		t.Fatalf("exit %d, stderr %q", code, serial)
	}
	if _, _, wide := runSim(t, append(args, "-parallel", "4")...); wide != serial {
		t.Fatal("-trace-line stderr differs between -parallel 1 and -parallel 4")
	}
}

// TestRejectsBadInput: invalid values and invalid flag combinations exit
// nonzero without running anything.
func TestRejectsBadInput(t *testing.T) {
	conf := writeConfig(t, []byte(`{"L1Ways": 2}`))
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"config with two core counts", []string{"-config", conf, "-cores", "16,32"}, "-config"},
		{"events with two apps", []string{"-app", "fmm,barnes", "-events", filepath.Join(t.TempDir(), "t.jsonl")}, "traced run"},
		{"events to stdout with two runs", []string{"-app", "fmm", "-protocol", "both", "-events", "-"}, "-events -"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runSim(t, tc.args...)
			if code == 0 {
				t.Fatalf("exit code 0, want nonzero; stdout:\n%s", stdout)
			}
			if stdout != "" {
				t.Errorf("stdout not empty:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}
