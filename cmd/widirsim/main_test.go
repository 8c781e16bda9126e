package main

import (
	"bytes"
	"encoding/json"
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
	got, err := loadConfig(buf.Bytes(), machine.DefaultConfig(64, coherence.Baseline))
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
	_, err := loadConfig([]byte(data), machine.DefaultConfig(16, coherence.WiDir))
	if err == nil || !strings.Contains(err.Error(), "FlitLevelNoC") {
		t.Fatalf("loadConfig error = %v, want an unknown-field error naming FlitLevelNoC", err)
	}
}

// TestConfigFileKeepsFault: a -config file's Fault section drives the
// run. A wireless BER corrupts transmissions, so the run's table moves
// off the fault-free one, and a link schedule reaches the injector with
// its links, rate and stall length as the file names them.
func TestConfigFileKeepsFault(t *testing.T) {
	run := []string{"-app", "fmm", "-cores", "16", "-scale", "0.05", "-protocol", "widir"}
	code, clean, stderr := runSim(t, run...)
	if code != 0 {
		t.Fatalf("fault-free run: exit %d: %s", code, stderr)
	}
	ber := writeConfig(t, []byte(`{"Fault": {"WirelessBER": 0.25, "Seed": 3}}`))
	code, faulty, stderr := runSim(t, append(run, "-config", ber)...)
	if code != 0 || !strings.Contains(stderr, "faults (wireless BER 0.25)") || strings.Contains(stderr, "corrupted=0 ") {
		t.Fatalf("-config WirelessBER: exit %d, stderr %q", code, stderr)
	}
	if faulty == clean {
		t.Fatalf("a wireless BER of 0.25 left the run unchanged:\n%s", faulty)
	}
	links := writeConfig(t, []byte(`{"Fault": {"LinkStallPct": 0.05, "LinkStallCycles": 8, "Links": [{"Src": 0, "Dst": 1}]}}`))
	code, _, stderr = runSim(t, append(run, "-config", links)...)
	if code != 0 || !strings.Contains(stderr, "faults (link stall 5%/8cy; links 0-1)") {
		t.Fatalf("-config link stalls: exit %d, stderr %q", code, stderr)
	}
}

// TestConfigFileOverlaysSweep: a -config file is decoded over every
// job of a -cores sweep, each keeping its own core count and the
// -protocol flag's protocol, and the sweep runs.
func TestConfigFileOverlaysSweep(t *testing.T) {
	conf := writeConfig(t, []byte(`{"EnableChecker": true, "Protocol": 0}`))
	args := []string{"-app", "fmm", "-cores", "16,32", "-scale", "0.05", "-protocol", "widir", "-csv", "-config", conf}
	code, stdout, stderr := runSim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[1], "fmm,WiDir,16,") || !strings.HasPrefix(rows[2], "fmm,WiDir,32,") {
		t.Fatalf("want a WiDir row for 16 and for 32 cores:\n%s", stdout)
	}
	data, err := os.ReadFile(conf)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("fmm")
	jobs, err := jobsFor([]workload.Profile{prof}, []int{16, 32}, []coherence.Protocol{coherence.WiDir}, []int{3}, data)
	if err != nil || len(jobs) != 2 {
		t.Fatalf("jobsFor: %d jobs, error %v", len(jobs), err)
	}
	for i, n := range []int{16, 32} {
		if c := jobs[i].cfg; !c.EnableChecker || c.Nodes != n || c.Protocol != coherence.WiDir {
			t.Errorf("job %d: EnableChecker %v, Nodes %d, Protocol %v; want true, %d, WiDir", i, c.EnableChecker, c.Nodes, c.Protocol, n)
		}
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
		cfg, err := loadConfig(data, machine.DefaultConfig(16, coherence.WiDir))
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

// TestFailedRunKeepsFinishedRows: a run that fails is reported on
// stderr and the exit status is 1, but the runs that finished still
// print. A watchdog between two apps' run lengths fails the longer one.
func TestFailedRunKeepsFinishedRows(t *testing.T) {
	path := writeConfig(t, []byte(`{"MaxCycles": 2800}`))
	code, stdout, stderr := runSim(t, "-app", "radiosity,fmm", "-cores", "16", "-scale", "0.05",
		"-protocol", "baseline", "-csv", "-config", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(rows) != 2 || !strings.HasPrefix(rows[0], "app,") || !strings.HasPrefix(rows[1], "fmm,Baseline,") {
		t.Fatalf("stdout should hold the header and the fmm row:\n%s", stdout)
	}
	if !strings.Contains(stderr, "widirsim: radiosity/Baseline: ") || strings.Contains(stderr, "fmm/") {
		t.Fatalf("stderr should report the radiosity run alone: %q", stderr)
	}
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

// TestTraceLineIndependentOfParallelism: the -trace-line stream of a
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

// TestTraceLineStreamsLineEvents: -trace-line writes the traced line's
// events to stderr in the -events JSONL schema and nothing else. Line
// 0x40002 of fmm is shared by every core, so under WiDir its history
// holds the wired messages, the S->W upgrade and the wireless updates.
func TestTraceLineStreamsLineEvents(t *testing.T) {
	code, _, stderr := runSim(t, "-app", "fmm", "-cores", "16", "-scale", "0.05", "-protocol", "widir", "-trace-line", "0x40002")
	if code != 0 || stderr == "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	kinds := map[string]int{}
	for _, ln := range strings.Split(strings.TrimSuffix(stderr, "\n"), "\n") {
		var e struct {
			Cycle *uint64
			Kind  string
			Line  string
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil || e.Cycle == nil {
			t.Fatalf("stderr line %q is not a JSONL event (%v)", ln, err)
		}
		if e.Line != "0x40002" {
			t.Fatalf("event %q is not on the traced line", ln)
		}
		kinds[e.Kind]++
	}
	for _, k := range []string{"msg-recv", "w-upgrade", "wir-upd"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event in the line's stream (kinds %v)", k, kinds)
		}
	}
}

// TestRejectsBadInput: invalid values and invalid flag combinations exit
// nonzero without running anything.
func TestRejectsBadInput(t *testing.T) {
	sized := writeConfig(t, []byte(`{"L1Ways": 2, "Nodes": 16}`))
	wired := writeConfig(t, []byte(`{"maxWiredSharers": 2}`))
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale"},
		{"zero cores", []string{"-cores", "0"}, "-cores"},
		{"config with two core counts", []string{"-config", sized, "-cores", "16,32"}, "one -cores value"},
		{"config naming MaxWiredSharers with two thresholds", []string{"-config", wired, "-maxwired", "2,3"}, "one -maxwired value"},
		{"config with an unknown field", []string{"-config", writeConfig(t, []byte(`{"FlitLevelNoC": true}`))}, "unknown field"},
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
