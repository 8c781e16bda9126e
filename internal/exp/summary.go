package exp

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/stats"
)

// SummaryRow is one line of the headline paper-vs-measured table.
type SummaryRow struct {
	Name     string
	Paper    string
	Measured string
}

// Summary computes the paper-vs-measured headline table from a single
// set of Baseline/WiDir pair runs (64 cores unless overridden) — every
// quantity except the core-count and threshold sweeps can be derived
// from one pass over the applications.
func Summary(o Options) ([]SummaryRow, error) {
	o.fill()
	rows, err := RunPairs(o)
	if err != nil {
		return nil, err
	}

	var mpkiN, latN, timeN, energyN, wnoc []float64
	var widir []*machine.Result
	hops := stats.NewHistogram(0, 3, 6, 9, 12)
	shr := stats.NewHistogram(0, 6, 11, 26, 50)
	for _, ar := range rows {
		mpkiN = append(mpkiN, stats.Ratio(ar.WiDir.MPKI(), ar.Base.MPKI()))
		bTot := ar.Base.LoadROBLat + ar.Base.StoreROBLat
		wTot := ar.WiDir.LoadROBLat + ar.WiDir.StoreROBLat
		latN = append(latN, stats.Ratio(float64(wTot), float64(bTot)))
		timeN = append(timeN, stats.Ratio(float64(ar.WiDir.Cycles), float64(ar.Base.Cycles)))
		energyN = append(energyN, stats.Ratio(ar.WiDir.EnergyPJ, ar.Base.EnergyPJ))
		wnoc = append(wnoc, ar.WiDir.Energy.Share("WNoC"))
		hops.Merge(ar.Base.HopsPerLeg)
		shr.Merge(ar.WiDir.SharersPerUpdate)
		widir = append(widir, ar.WiDir)
	}
	m := motivationOf(o, widir)
	sixPlus := hops.Fraction(2) + hops.Fraction(3) + hops.Fraction(4)

	return []SummaryRow{
		{"sharers updated per write (mean)", "~21", fmt.Sprintf("%.1f", m.MeanSharersPerWrite)},
		{"updates re-read before next write", "~56%", fmt.Sprintf("%.0f%%", 100*m.ReReadFraction)},
		{"wireless writes updating 50+ sharers", "37%", fmt.Sprintf("%.0f%%", 100*shr.Fraction(4))},
		{"normalized L1 MPKI (avg)", "~0.85", fmt.Sprintf("%.3f", stats.ArithMean(mpkiN))},
		{"normalized memory latency (avg)", "~0.65", fmt.Sprintf("%.3f", stats.ArithMean(latN))},
		{"wired legs needing 6+ hops", "61%", fmt.Sprintf("%.0f%%", 100*sixPlus)},
		{fmt.Sprintf("normalized execution time (%d cores)", o.Cores), "~0.78 @64", fmt.Sprintf("%.3f", stats.ArithMean(timeN))},
		{"normalized energy (avg)", "~0.79", fmt.Sprintf("%.3f", stats.ArithMean(energyN))},
		{"WNoC share of WiDir energy", "5.9%", fmt.Sprintf("%.1f%%", 100*stats.ArithMean(wnoc))},
	}, nil
}

// PrintSummary renders the headline table.
func PrintSummary(w io.Writer, rows []SummaryRow) {
	fmt.Fprintln(w, "Headline summary: paper vs. measured (shape reproduction)")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Quantity\tPaper\tMeasured")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Name, r.Paper, r.Measured)
	}
	tw.Flush()
}
