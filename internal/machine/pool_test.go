package machine

import (
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// TestPooledMessagesPoisoned is the use-after-free net of the wired
// message free list (see coherence.Env for who owns a message when).
// Each run repeats with poisonMsgs on: every freed message is
// scribbled with an invalid type and a poison line and never reused,
// so a handler that reads a message after its free sees the poison (a
// protocol error, a checker violation or a different run) and a second
// free panics. The poisoned Result must equal the plain run's. The
// runs cover both protocols at 64 cores with the checker on, message
// jitter, and injected faults (which exercise the deferred-put queues
// of a small LLC, W demotions and delayed directory requests).
func TestPooledMessagesPoisoned(t *testing.T) {
	type run struct {
		name   string
		cfg    Config
		prof   string
		jitter int
	}
	var runs []run
	for _, app := range []string{"radiosity", "barnes", "canneal", "fmm"} {
		for _, p := range []coherence.Protocol{coherence.Baseline, coherence.WiDir} {
			cfg := DefaultConfig(64, p)
			cfg.EnableChecker = true
			runs = append(runs, run{app + "/" + p.String(), cfg, app, 0})
		}
	}
	jitter := DefaultConfig(16, coherence.WiDir)
	jitter.EnableChecker = true
	runs = append(runs, run{"fmm/jitter", jitter, "fmm", 3})
	faulty := DefaultConfig(16, coherence.WiDir)
	faulty.EnableChecker = true
	faulty.LLCEntriesPerSlice = 8
	faulty.Fault = faultyConfig()
	runs = append(runs, run{"fmm/faults", faulty, "fmm", 0})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			plain := poolRun(t, r.cfg, r.prof, r.jitter, false)
			poisoned := poolRun(t, r.cfg, r.prof, r.jitter, true)
			if !reflect.DeepEqual(plain, poisoned) {
				t.Errorf("poisoned run differs: %d cycles, %d packets; plain %d cycles, %d packets",
					poisoned.Cycles, poisoned.MeshPackets, plain.Cycles, plain.MeshPackets)
			}
		})
	}
}

func poolRun(t *testing.T, cfg Config, app string, jitter int, poison bool) *Result {
	t.Helper()
	prof, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	sys, err := NewSystem(cfg, workload.Program(prof.Scale(0.1), cfg.Nodes, 3))
	if err != nil {
		t.Fatal(err)
	}
	sys.Mesh().Jitter = jitter
	sys.poisonMsgs = poison
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("poison=%v: %v", poison, err)
	}
	return r
}
