// Fault sweep: robustness evaluation under injected wireless faults.
// Not part of the paper's figures — the paper assumes the WNoC's
// negligible BER (§III) — but the natural experiment once the
// simulator can model a hostile channel: how gracefully does WiDir
// degrade as the wireless medium fails underneath it?

package exp

import (
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/machine"
)

// FaultSweepRow is one (application, BER) point of the sweep. The
// fault-free WiDir run of the same application is the slowdown
// reference.
type FaultSweepRow struct {
	App string
	BER float64

	Cycles   uint64
	Slowdown float64 // cycles / fault-free cycles

	Corrupted  uint64 // wireless transmissions lost to faults
	TxFailures uint64 // senders that exhausted their retries
	Demotions  uint64 // W lines demoted to wired S
	WToS       uint64 // all W->S downgrades (demotions included)
}

// FaultSweep runs WiDir with the coherence checker enabled across the
// BER grid (plus the fault-free reference per app). Every run must
// stay coherent — a checker violation fails the sweep — so the sweep
// doubles as the protocol's robustness acceptance test.
func FaultSweep(o Options, bers []float64, fcfg fault.Config) ([]FaultSweepRow, error) {
	o.fill()
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	r := o.runner()
	grid := append([]float64{0}, bers...)
	res, err := Map(r, len(apps)*len(grid), func(i int) (*machine.Result, error) {
		app, ber := apps[i/len(grid)], grid[i%len(grid)]
		cfg := machine.DefaultConfig(o.Cores, coherence.WiDir)
		cfg.EnableChecker = true
		cfg.Fault = fcfg
		cfg.Fault.WirelessBER = ber
		res, err := r.Sim(cfg, app, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("BER %g: %w", ber, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []FaultSweepRow
	for ai, app := range apps {
		ref := res[ai*len(grid)] // BER 0
		for bi, ber := range grid {
			if bi == 0 {
				continue
			}
			rr := res[ai*len(grid)+bi]
			rows = append(rows, FaultSweepRow{
				App: app.Name, BER: ber,
				Cycles:    rr.Cycles,
				Slowdown:  float64(rr.Cycles) / float64(ref.Cycles),
				Corrupted: rr.WirelessCorrupted, TxFailures: rr.WirelessTxFailures,
				Demotions: rr.FaultDemotions, WToS: rr.WToS,
			})
		}
	}
	return rows, nil
}

// PrintFaultSweep renders the sweep as a table.
func PrintFaultSweep(w io.Writer, rows []FaultSweepRow) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "app\tBER\tcycles\tslowdown\tcorrupted\ttx-failures\tW->S demotions\tW->S total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%g\t%d\t%.2fx\t%d\t%d\t%d\t%d\n",
			r.App, r.BER, r.Cycles, r.Slowdown, r.Corrupted, r.TxFailures, r.Demotions, r.WToS)
	}
	tw.Flush()
}

// CSVFaultSweep emits the sweep as CSV for plotting.
func CSVFaultSweep(w io.Writer, rows []FaultSweepRow) {
	fmt.Fprintln(w, "app,ber,cycles,slowdown,corrupted,tx_failures,demotions,wtos")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%g,%d,%.4f,%d,%d,%d,%d\n",
			r.App, r.BER, r.Cycles, r.Slowdown, r.Corrupted, r.TxFailures, r.Demotions, r.WToS)
	}
}
