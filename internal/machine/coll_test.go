package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// TestCollisionScalesWithUtilization pins the wireless-channel behaviour
// the Table VI sensitivity depends on: halving the shared-write traffic
// must cut both channel utilization and the collision probability.
func TestCollisionScalesWithUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("utilization sweep is slow")
	}
	probe := func(hotFrac float64) (coll, util float64) {
		p := workload.Profile{
			Name: "probe", PaperMPKI: 1, Steps: 2000, ComputePerMem: 8,
			HotLines: 12, HotAccessFrac: hotFrac, HotWriteFrac: 0.05,
			StreamFrac: 0.012, ReuseLines: 64, PrivateWriteFrac: 0.3,
		}
		cfg := DefaultConfig(64, coherence.WiDir)
		sys, err := NewSystem(cfg, workload.Program(p, 64, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.CollisionProb, float64(sys.Wireless().BusyCycles) / float64(r.Cycles)
	}
	cHigh, uHigh := probe(0.08)
	cLow, uLow := probe(0.02)
	if uLow >= uHigh {
		t.Fatalf("utilization did not drop with traffic: %.3f vs %.3f", uLow, uHigh)
	}
	if cLow >= cHigh {
		t.Fatalf("collision probability did not drop with traffic: %.3f vs %.3f", cLow, cHigh)
	}
	if cLow > 0.25 {
		t.Fatalf("light traffic collision probability %.3f unexpectedly high", cLow)
	}
}
