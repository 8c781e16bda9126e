package machine

import (
	"math"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/wireless"
	"repro/internal/workload"
)

func runApp(t *testing.T, name string, nodes int, p coherence.Protocol, scale float64, seed uint64, check bool) *Result {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	prof = prof.Scale(scale)
	cfg := DefaultConfig(nodes, p)
	cfg.EnableChecker = check
	cfg.MaxCycles = 100_000_000
	sys, err := NewSystem(cfg, workload.Program(prof, nodes, seed))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("%s/%v/%d cores/seed %d: %v", name, p, nodes, seed, err)
	}
	return r
}

func TestCheckedBaseline16(t *testing.T) {
	r := runApp(t, "barnes", 16, coherence.Baseline, 0.1, 7, true)
	if r.Retired == 0 {
		t.Fatal("nothing retired")
	}
}

func TestCheckedWiDir16(t *testing.T) {
	r := runApp(t, "barnes", 16, coherence.WiDir, 0.1, 7, true)
	if r.SToW == 0 {
		t.Error("expected S->W transitions under WiDir")
	}
	if r.WirelessWrites == 0 {
		t.Error("expected wireless writes under WiDir")
	}
}

// TestCheckedMatrix sweeps protocol x app x seed with the value and
// structural checkers enabled — the main correctness stress.
func TestCheckedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("checked matrix is slow")
	}
	apps := []string{"radiosity", "ocean-nc", "fft", "water-spa", "canneal"}
	for _, app := range apps {
		for _, p := range []coherence.Protocol{coherence.Baseline, coherence.WiDir} {
			for _, seed := range []uint64{1, 2} {
				runApp(t, app, 16, p, 0.08, seed, true)
			}
		}
	}
}

// TestCheckedWiDir64 exercises the full 64-core machine with checking.
func TestCheckedWiDir64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core checked run is slow")
	}
	runApp(t, "radiosity", 64, coherence.WiDir, 0.05, 3, true)
	runApp(t, "barnes", 64, coherence.WiDir, 0.05, 3, true)
}

// TestRegressionDeadlocks re-runs the configurations that exposed
// protocol deadlocks during development (stale eviction notices across
// S->W transitions, early W->S commits, lock churn at 32 cores).
func TestRegressionDeadlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("regression sweep is slow")
	}
	runApp(t, "barnes", 32, coherence.WiDir, 0.0625, 1, false)
	runApp(t, "ocean-nc", 64, coherence.WiDir, 1.0, 13, false)
	runApp(t, "barnes", 64, coherence.WiDir, 0.1, 11, false)
	runApp(t, "radiosity", 64, coherence.WiDir, 0.05, 11, false)
}

func TestDeterminism(t *testing.T) {
	a := runApp(t, "fmm", 16, coherence.WiDir, 0.08, 5, false)
	b := runApp(t, "fmm", 16, coherence.WiDir, 0.08, 5, false)
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.WirelessWrites != b.WirelessWrites {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Cycles, a.Retired, b.Cycles, b.Retired)
	}
}

func TestSeedChangesRun(t *testing.T) {
	a := runApp(t, "fmm", 16, coherence.WiDir, 0.08, 5, false)
	b := runApp(t, "fmm", 16, coherence.WiDir, 0.08, 6, false)
	if a.Cycles == b.Cycles && a.Retired == b.Retired {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestBaselineNeverUsesWireless(t *testing.T) {
	r := runApp(t, "radiosity", 16, coherence.Baseline, 0.08, 1, false)
	if r.WirelessWrites != 0 || r.SToW != 0 || r.WirelessAttempts != 0 {
		t.Fatalf("baseline used the wireless network: %+v", r)
	}
}

func TestResultMetrics(t *testing.T) {
	r := runApp(t, "barnes", 16, coherence.WiDir, 0.08, 1, false)
	if r.MPKI() <= 0 {
		t.Fatal("MPKI not positive")
	}
	if r.ReadMPKI()+r.WriteMPKI() != r.MPKI() {
		t.Fatal("MPKI split does not sum")
	}
	if r.EnergyPJ <= 0 {
		t.Fatal("energy not positive")
	}
	if r.Energy.Share("Core") <= 0 {
		t.Fatal("core energy share missing")
	}
	if r.Energy.Share("WNoC") <= 0 {
		t.Fatal("WiDir run has no WNoC energy")
	}
	if r.MemStallCycles == 0 {
		t.Fatal("no memory stalls attributed")
	}
	if r.HopsPerLeg.Total() == 0 {
		t.Fatal("no hop samples")
	}
}

func TestBaselineEnergyHasNoWNoC(t *testing.T) {
	r := runApp(t, "barnes", 16, coherence.Baseline, 0.08, 1, false)
	if r.Energy.Share("WNoC") != 0 {
		t.Fatal("baseline charged for the wireless network")
	}
}

func TestFig5HistogramPopulated(t *testing.T) {
	r := runApp(t, "radiosity", 64, coherence.WiDir, 0.05, 1, false)
	if r.SharersPerUpdate.Total() == 0 {
		t.Fatal("no wireless updates sampled")
	}
	if r.MeanSharersPerUpdate <= 0 {
		t.Fatal("mean sharers not computed")
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{
		64: {8, 8}, 32: {8, 4}, 16: {4, 4}, 4: {2, 2}, 12: {4, 3}, 7: {7, 1},
	}
	for n, want := range cases {
		w, h := meshDims(n)
		if w*h != n {
			t.Fatalf("meshDims(%d) = %dx%d", n, w, h)
		}
		if w != want[0] || h != want[1] {
			t.Fatalf("meshDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(16, coherence.WiDir)
	if _, err := NewSystem(cfg, nil); err == nil {
		t.Fatal("mismatched source count accepted")
	}
	bad := cfg
	bad.Nodes = 0
	if _, err := NewSystem(bad, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = cfg
	bad.MeshW, bad.MeshH = 3, 3 // 9 != 16
	if _, err := NewSystem(bad, make([]cpu.InstrSource, 16)); err == nil {
		t.Fatal("inconsistent mesh accepted")
	}
}

// TestNewSystemRejectsBadConfig: a configuration no component can build
// (or one that could only spin into the watchdog) is reported by
// NewSystem as an error, never as a panic from deep inside assembly.
func TestNewSystemRejectsBadConfig(t *testing.T) {
	prof, _ := workload.ByName("barnes")
	prof = prof.Scale(0.05)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"L1Ways=3", func(c *Config) { c.L1Ways = 3 }},
		{"L1SizeBytes=100", func(c *Config) { c.L1SizeBytes = 100 }},
		{"MaxPointers<MaxWiredSharers", func(c *Config) { c.MaxPointers = 2 }},
		{"MaxPointers=-1", func(c *Config) { c.MaxPointers = -1 }},
		{"MemControllers=-1", func(c *Config) { c.MemControllers = -1 }},
		{"Mesh=-4x-4", func(c *Config) { c.MeshW, c.MeshH = -4, -4 }},
		{"Mesh=(2^62+1)x16", func(c *Config) { c.MeshW, c.MeshH = 1<<62+1, 16 }},
		{"Core.ROBSize=-1", func(c *Config) { c.Core.ROBSize = -1 }},
		{"Core.IssueWidth=-1", func(c *Config) { c.Core.IssueWidth = -1 }},
		{"MaxWiredSharers=-1", func(c *Config) { c.MaxWiredSharers = -1 }},
		{"UpdateCountMax=-1", func(c *Config) { c.UpdateCountMax = -1 }},
		{"LLCEntriesPerSlice=-1", func(c *Config) { c.LLCEntriesPerSlice = -1 }},
		{"Protocol=2", func(c *Config) { c.Protocol = 2 }},
		{"DirScheme=2", func(c *Config) { c.DirScheme = 2 }},
		{"MAC=2", func(c *Config) { c.MAC = 2 }},
		{"DirCV/CoarseRegion=-1", func(c *Config) { c.DirScheme, c.CoarseRegion = coherence.DirCV, -1 }},
		{"DirCV/100 nodes/CoarseRegion=1", func(c *Config) { c.Nodes, c.DirScheme, c.CoarseRegion = 100, coherence.DirCV, 1 }},
		{"Fault.WirelessBER=2", func(c *Config) { c.Fault.WirelessBER = 2 }},
		{"Fault.WirelessBER=-1", func(c *Config) { c.Fault.WirelessBER = -1 }},
		{"Fault.WirelessBER=NaN", func(c *Config) { c.Fault.WirelessBER = math.NaN() }},
		{"Fault.LinkStallPct=+Inf", func(c *Config) { c.Fault.LinkStallPct = math.Inf(1) }},
		{"Fault.LinkDropPct=1.5", func(c *Config) { c.Fault.LinkDropPct = 1.5 }},
		{"Fault.DirDelayPct=-0.1", func(c *Config) { c.Fault.DirDelayPct = -0.1 }},
		{"Fault.Links=0-999", func(c *Config) {
			c.Fault.LinkStallPct, c.Fault.Links = 0.5, []fault.Link{{Src: 0, Dst: 999}}
		}},
		{"Fault.Links=16-0", func(c *Config) {
			c.Fault.LinkDropPct, c.Fault.Links = 0.5, []fault.Link{{Src: 16, Dst: 0}}
		}},
		{"Fault.Links without a rate", func(c *Config) { c.Fault.Links = []fault.Link{{Src: 0, Dst: 1}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(16, coherence.WiDir)
			tc.mut(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewSystem panicked: %v", r)
				}
			}()
			if _, err := NewSystem(cfg, workload.Program(prof, cfg.Nodes, 1)); err == nil {
				t.Fatal("NewSystem accepted the configuration")
			}
		})
	}
}

func TestWatchdog(t *testing.T) {
	prof, _ := workload.ByName("barnes")
	prof = prof.Scale(0.5)
	cfg := DefaultConfig(16, coherence.WiDir)
	cfg.MaxCycles = 100 // far too few
	sys, err := NewSystem(cfg, workload.Program(prof, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("watchdog did not trip")
	}
}

func TestMemoryDataIntegrity(t *testing.T) {
	// A value written by one core, after enough churn to evict it
	// everywhere, must still be readable by another core: exercises the
	// writeback path through the LLC and memory controllers.
	cfg := DefaultConfig(4, coherence.WiDir)
	cfg.LLCEntriesPerSlice = 4 // force directory evictions
	cfg.EnableChecker = true
	prof, _ := workload.ByName("canneal")
	prof = prof.Scale(0.05)
	sys, err := NewSystem(cfg, workload.Program(prof, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Home(0).Stats.DirEvictions == 0 &&
		sys.Home(1).Stats.DirEvictions == 0 &&
		sys.Home(2).Stats.DirEvictions == 0 &&
		sys.Home(3).Stats.DirEvictions == 0 {
		t.Fatal("test did not exercise directory evictions")
	}
}

func TestMaxWiredSharersThreshold(t *testing.T) {
	// With a higher threshold, fewer lines transition to wireless.
	prof, _ := workload.ByName("radiosity")
	prof = prof.Scale(0.1)
	var stow [2]uint64
	for i, th := range []int{2, 5} {
		cfg := DefaultConfig(16, coherence.WiDir)
		cfg.MaxWiredSharers = th
		cfg.MaxPointers = th
		sys, err := NewSystem(cfg, workload.Program(prof, 16, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		stow[i] = r.SToW
	}
	if stow[0] <= stow[1] {
		t.Fatalf("threshold 2 produced %d transitions, threshold 5 produced %d", stow[0], stow[1])
	}
}

func TestStepAndAccessors(t *testing.T) {
	prof, _ := workload.ByName("fmm")
	prof = prof.Scale(0.05)
	cfg := DefaultConfig(4, coherence.WiDir)
	sys, err := NewSystem(cfg, workload.Program(prof, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Step(100)
	if sys.Cycle() != 100 {
		t.Fatalf("cycle = %d", sys.Cycle())
	}
	if sys.L1(0) == nil || sys.Home(0) == nil || sys.Core(0) == nil || sys.Mesh() == nil || sys.Wireless() == nil {
		t.Fatal("accessors returned nil")
	}
	if sys.Config().Nodes != 4 {
		t.Fatal("config not filled")
	}
}

// TestProtocolComparisonShape asserts the headline result's direction
// on a high-sharing application: WiDir must cut coherence misses.
func TestProtocolComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs are slow")
	}
	base := runApp(t, "radiosity", 64, coherence.Baseline, 0.25, 1, false)
	wd := runApp(t, "radiosity", 64, coherence.WiDir, 0.25, 1, false)
	if wd.MPKI() >= base.MPKI() {
		t.Fatalf("WiDir MPKI %.2f did not improve on Baseline %.2f", wd.MPKI(), base.MPKI())
	}
	if wd.Cycles >= base.Cycles {
		t.Fatalf("WiDir %d cycles did not improve on Baseline %d", wd.Cycles, base.Cycles)
	}
}

// TestMigratoryStaysWired: migratory data (one writer at a time,
// ownership handed around) is the classic pattern update protocols lose
// on. WiDir's design keeps it on the wired protocol automatically —
// frequent writes invalidate readers before MaxWiredSharers concurrent
// sharers can accumulate, so the lines (almost) never transition to W,
// and any that do must decay back out rather than staying pinned.
func TestMigratoryStaysWired(t *testing.T) {
	prof := workload.Profile{
		Name: "migratory", PaperMPKI: 1, Steps: 3000, ComputePerMem: 6,
		MigLines: 4, MigAccessFrac: 0.25,
		StreamFrac: 0.01, ReuseLines: 32, PrivateWriteFrac: 0.3,
	}
	cfg := DefaultConfig(16, coherence.WiDir)
	cfg.EnableChecker = true
	sys, err := NewSystem(cfg, workload.Program(prof, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Migratory lines may enter W episodically (reader bursts between
	// ownership hops), but the decay machinery must keep pushing them
	// back to the wired protocol: exits track entries.
	if r.SToW > 0 {
		exits := r.WToS + r.WirInvs
		if exits*2 < r.SToW {
			t.Fatalf("migratory lines entered W %d times but left only %d times", r.SToW, exits)
		}
		if r.SelfInvalidations == 0 {
			t.Fatal("no UpdateCount decay on migratory data")
		}
	}
}

// TestExtensionsUnderChecker runs the Dir_iCV_r directory and the token
// MAC through full checked machines: the extensions must preserve
// coherence, not just compile.
func TestExtensionsUnderChecker(t *testing.T) {
	prof, _ := workload.ByName("radiosity")
	prof = prof.Scale(0.08)

	cfg := DefaultConfig(16, coherence.Baseline)
	cfg.DirScheme = coherence.DirCV
	cfg.CoarseRegion = 4
	cfg.EnableChecker = true
	sys, err := NewSystem(cfg, workload.Program(prof, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("Dir_iCV_r: %v", err)
	}

	cfg = DefaultConfig(16, coherence.WiDir)
	cfg.MAC = wireless.MACToken
	cfg.EnableChecker = true
	sys, err = NewSystem(cfg, workload.Program(prof, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("token MAC: %v", err)
	}
	if r.WirelessCollisions != 0 {
		t.Fatalf("token MAC collided %d times", r.WirelessCollisions)
	}
	if r.WirelessWrites == 0 {
		t.Fatal("token MAC carried no updates")
	}
}
