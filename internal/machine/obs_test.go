package machine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/workload"
)

// obsFingerprint condenses a Result into the byte-stable summary the
// pre-obs goldens below were captured from. It deliberately covers
// every counter family the instrumentation touches (cycle loop, L1,
// directory, wireless, mesh, memory, energy, miss latency): if adding
// a trace sink perturbed any of them, the hash moves.
func obsFingerprint(r *Result) string {
	return fmt.Sprintf("cycles=%d retired=%d l1miss=%d/%d wwr=%d stow=%d wtos=%d nacks=%d invs=%d mesh=%d mem=%d energy=%.6f misslat=%s",
		r.Cycles, r.Retired, r.L1LoadMisses, r.L1StoreMisses, r.WirelessWrites,
		r.SToW, r.WToS, r.NACKs, r.Invalidations, r.MeshPackets, r.MemAccesses,
		r.EnergyPJ, r.MissLatency)
}

// obsRun executes the determinism-suite workload (fmm at scale 0.08 on
// 16 cores, seed 5, small directory) with the given sink attached.
func obsRun(t testing.TB, p coherence.Protocol, sink obs.Sink) (*Result, string) {
	prof, ok := workload.ByName("fmm")
	if !ok {
		t.Fatal("unknown app fmm")
	}
	prof = prof.Scale(0.08)
	cfg := DefaultConfig(16, p)
	cfg.MaxCycles = 100_000_000
	cfg.LLCEntriesPerSlice = 8
	cfg.Trace = sink
	sys, err := NewSystem(cfg, workload.Program(prof, cfg.Nodes, 5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, sys.Memory().Dump()
}

// Golden hashes captured on the commit immediately before the obs
// subsystem landed (same workload, no Trace field in the config).
// They pin two properties at once: the simulator still computes
// exactly what it did before instrumentation, and a run with tracing
// enabled computes the same thing as a run without.
const (
	goldenBaseStats  = "fc67910302ac83a2e4fdad7aedab9e9ba22e979663481ec06d354ca499660ba8"
	goldenBaseMem    = "ef5597bcbf9999a41c1c7751a3c6887f6d23460f4fcbfdf950e4a0205dc45f7f"
	goldenWiDirStats = "d99e04cf88d03b684bca25b5128a6d827a3f75a0cdb5c709416456e387bc869c"
	goldenWiDirMem   = "d5c45f9d5512e88d4a0e07e5179d2cadef5804d1564fb7315db41d2d87724483"
)

func TestTracingOffMatchesPreObsGolden(t *testing.T) {
	for _, tc := range []struct {
		p          coherence.Protocol
		stats, mem string
	}{
		{coherence.Baseline, goldenBaseStats, goldenBaseMem},
		{coherence.WiDir, goldenWiDirStats, goldenWiDirMem},
	} {
		r, mem := obsRun(t, tc.p, nil)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(obsFingerprint(r)))); got != tc.stats {
			t.Errorf("%v: stats fingerprint drifted from pre-obs golden:\n got  %s\n want %s\n fp: %s",
				tc.p, got, tc.stats, obsFingerprint(r))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(mem))); got != tc.mem {
			t.Errorf("%v: memory image drifted from pre-obs golden: %s != %s", tc.p, got, tc.mem)
		}
	}
}

func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for _, p := range []coherence.Protocol{coherence.Baseline, coherence.WiDir} {
		plain, memPlain := obsRun(t, p, nil)
		ring := obs.NewRingSink(1 << 20)
		traced, memTraced := obsRun(t, p, ring)
		if obsFingerprint(plain) != obsFingerprint(traced) {
			t.Errorf("%v: attaching a sink changed the simulation:\n off: %s\n on:  %s",
				p, obsFingerprint(plain), obsFingerprint(traced))
		}
		if memPlain != memTraced {
			t.Errorf("%v: attaching a sink changed the memory image", p)
		}
		if ring.Len() == 0 {
			t.Errorf("%v: traced run captured no events", p)
		}
	}
}

// TestTracingAddsNoAllocations runs the same deterministic simulation
// with and without a (preconstructed) ring sink and compares total
// allocation counts: equal counts prove the enabled emit path
// allocates nothing, and a fortiori that the disabled (nil-sink)
// branch does not either. The comparison carries a few allocations of
// slack: the sim's maps pick random hash seeds per instance, so the
// number of overflow buckets they allocate while growing jitters
// between otherwise identical runs. The traced run emits ~10^5
// events, so a real per-event allocation overshoots the slack by four
// orders of magnitude.
func TestTracingAddsNoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation census runs the sim four times")
	}
	if raceEnabled {
		t.Skip("race-runtime bookkeeping allocates nondeterministically")
	}
	ring := obs.NewRingSink(1 << 20)
	off := testing.AllocsPerRun(1, func() { obsRun(t, coherence.WiDir, nil) })
	on := testing.AllocsPerRun(1, func() { obsRun(t, coherence.WiDir, ring) })
	const slack = 8 // map overflow-bucket jitter between runs
	if on > off+slack {
		t.Errorf("tracing added %.0f allocations per run (off=%.0f on=%.0f)", on-off, off, on)
	}
}

func TestTracedRunsByteIdenticalJSONL(t *testing.T) {
	encode := func() []byte {
		ring := obs.NewRingSink(1 << 20)
		obsRun(t, coherence.WiDir, ring)
		if ring.Dropped() != 0 {
			t.Fatalf("ring wrapped (%d dropped); enlarge the buffer", ring.Dropped())
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, ring.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if len(a) == 0 {
		t.Fatal("traced run produced no JSONL")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two serial traced runs of the same seed must produce byte-identical JSONL")
	}
}

// TestTraceCoversSchema sanity-checks that a WiDir run exercises the
// main event families and that its spans split across both protocol
// paths.
func TestTraceCoversSchema(t *testing.T) {
	ring := obs.NewRingSink(1 << 20)
	obsRun(t, coherence.WiDir, ring)
	events := ring.Events()
	var seen [1 << 8]bool
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, k := range []obs.Kind{
		obs.EvTxnBegin, obs.EvTxnEnd, obs.EvL1Miss, obs.EvL1Fill,
		obs.EvWUpgrade, obs.EvWirUpd, obs.EvSlotGrant,
		obs.EvMsgSend, obs.EvMsgRecv, obs.EvMeshLeg, obs.EvROBStall,
	} {
		if !seen[k] {
			t.Errorf("WiDir trace never emitted %s", k)
		}
	}
	sum := obs.Summarize(obs.BuildSpans(events))
	if sum.Wired.Total() == 0 {
		t.Error("no wired request spans stitched")
	}
	if sum.Wireless.Total() == 0 {
		t.Error("no wireless request spans stitched")
	}
}
