package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/coherence"
)

// fingerprint is the recorded outcome of one op. For a sim it covers
// the simulated Result's headline counters; for an exploration, the
// canonical state and edge counts.
type fingerprint struct {
	Cycles             uint64  `json:"cycles,omitempty"`
	Retired            uint64  `json:"retired,omitempty"`
	L1Misses           uint64  `json:"l1_misses,omitempty"`
	MeshPackets        uint64  `json:"mesh_packets,omitempty"`
	WirelessWrites     uint64  `json:"wireless_writes,omitempty"`
	WirelessCollisions uint64  `json:"wireless_collisions,omitempty"`
	NACKs              uint64  `json:"nacks,omitempty"`
	EnergyPJ           float64 `json:"energy_pj,omitempty"`
	States             int     `json:"states,omitempty"`
	Edges              int     `json:"edges,omitempty"`
}

// fingerprint summarizes a successful op's output.
func (s sample) fingerprint() fingerprint {
	if s.mres != nil {
		return fingerprint{States: s.mres.States, Edges: s.mres.Edges}
	}
	r := s.res
	return fingerprint{
		Cycles: r.Cycles, Retired: r.Retired, L1Misses: r.L1LoadMisses + r.L1StoreMisses,
		MeshPackets: r.MeshPackets, WirelessWrites: r.WirelessWrites,
		WirelessCollisions: r.WirelessCollisions, NACKs: r.NACKs, EnergyPJ: r.EnergyPJ,
	}
}

// verify compares a successful op's output with its recorded
// fingerprint. An exploration must also be clean.
func (s sample) verify(want map[string]fingerprint) error {
	if s.mres != nil && !s.mres.Clean() {
		return fmt.Errorf("model check violation: %v", s.mres.Violation)
	}
	w, ok := want[s.op.name()]
	if !ok {
		return fmt.Errorf("no recorded fingerprint")
	}
	if got := s.fingerprint(); got != w {
		return fmt.Errorf("output %+v differs from the recorded %+v", got, w)
	}
	return nil
}

// fig8Mean is EXPERIMENTS.md's 64-core Fig. 8 mean WiDir/Baseline
// execution-time ratio, reproduced by paper-64 input set 1 (workload
// seed 1, the seed widir-experiments uses); paperFig8Mean is the
// paper's own value.
const (
	fig8Mean      = 0.861
	paperFig8Mean = 0.78
)

// checkFig8 ties input set 1 of paper-64 to the published number.
func (b *bench) checkFig8(p passResult, s uint64) error {
	if b.name != "paper-64" || s != 1 {
		return nil
	}
	got, ok := fig8(p)
	if !ok || math.Abs(got-fig8Mean) > 0.0005 {
		return fmt.Errorf("paper-64 Fig. 8 mean %.4f, EXPERIMENTS.md records %.3f", got, fig8Mean)
	}
	return nil
}

// fig8 is the mean over apps of WiDir/Baseline cycles, for a pass made
// of Baseline/WiDir pairs; ok is false when any op failed.
func fig8(p passResult) (mean float64, ok bool) {
	var sum float64
	n := 0
	for i := 0; i+1 < len(p.samples); i += 2 {
		base, wd := p.samples[i], p.samples[i+1]
		if base.res == nil || wd.res == nil || base.op.proto != coherence.Baseline || wd.op.proto != coherence.WiDir {
			return 0, false
		}
		sum += float64(wd.res.Cycles) / float64(base.res.Cycles)
		n++
	}
	return sum / float64(n), n > 0
}

//go:embed fingerprints.json
var recorded []byte

// loadFingerprints returns the recorded fingerprints of one workload.
func loadFingerprints(workload string) (map[string]fingerprint, error) {
	var all map[string]map[string]fingerprint
	if err := json.Unmarshal(recorded, &all); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return all[workload], nil
}

// recordFingerprints runs every op of every pool seed that the file
// does not yet hold and writes the outcomes back after each seed. An op
// that fails is reported and left unrecorded, so a benchmark run on its
// input set counts it as failed. Regenerate after a change that
// deliberately alters simulated results.
func recordFingerprints(path, workload string, pass func(uint64) []op, stderr io.Writer) error {
	var all map[string]map[string]fingerprint
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if all == nil {
		all = map[string]map[string]fingerprint{}
	}
	if all[workload] == nil {
		all[workload] = map[string]fingerprint{}
	}
	b := &bench{}
	failed := 0
	for s := uint64(1); s <= seedPool; s++ {
		for _, o := range pass(s) {
			if _, ok := all[workload][o.name()]; ok {
				continue
			}
			smp := b.op(o, -1)
			if smp.err == nil && smp.mres != nil && !smp.mres.Clean() {
				smp.err = smp.mres.Violation
			}
			if smp.err != nil {
				failed++
				fmt.Fprintf(stderr, "perfbench: not recorded: %s (input set %d): %.300v\n", o.name(), s, smp.err)
				continue
			}
			all[workload][o.name()] = smp.fingerprint()
		}
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d ops failed and were not recorded", workload, failed)
	}
	return nil
}
