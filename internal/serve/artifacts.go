package serve

import (
	"bytes"
	"fmt"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/obs"
)

// resultCSV renders one run's headline metrics as a two-line CSV —
// the machine-readable artifact stored with every cache entry. Figure
// series CSVs (exp.CSVFig8 etc.) aggregate across runs; this is the
// per-run row those series are built from.
func resultCSV(k exp.RunKey, res *machine.Result) []byte {
	var b bytes.Buffer
	stallFrac := 0.0
	if res.Cycles > 0 && res.Nodes > 0 {
		stallFrac = float64(res.MemStallCycles) / float64(res.Cycles*uint64(res.Nodes))
	}
	fmt.Fprintln(&b, "protocol,app,cores,seed,cycles,retired,mpki,mem_stall_frac,mean_sharers_per_update,collision_prob,energy_pj")
	fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%.4f,%.4f,%.2f,%.4f,%.1f\n",
		k.Protocol, k.App.Name, k.Cores, k.Seed,
		res.Cycles, res.Retired, res.MPKI(), stallFrac,
		res.MeanSharersPerUpdate, res.CollisionProb, res.EnergyPJ)
	return b.Bytes()
}

// traceArtifacts renders the full artifact set for a traced run:
// the per-run CSV plus the JSONL event log and Perfetto trace.
func traceArtifacts(k exp.RunKey, tr *exp.TraceRun) (map[string][]byte, error) {
	var jsonl, perfetto bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, tr.Events); err != nil {
		return nil, fmt.Errorf("serve: render jsonl: %w", err)
	}
	if err := obs.WritePerfetto(&perfetto, tr.Events); err != nil {
		return nil, fmt.Errorf("serve: render perfetto: %w", err)
	}
	return map[string][]byte{
		ArtifactCSV:      resultCSV(k, tr.Result),
		ArtifactJSONL:    jsonl.Bytes(),
		ArtifactPerfetto: perfetto.Bytes(),
	}, nil
}
