// Package exp implements the paper's evaluation: one function per
// table and figure, each running the required simulations through a
// memoizing Runner (optionally backed by the persistent result Cache)
// and formatting the same rows or series the paper reports. The
// cmd/widir-experiments tool is its one front-end.
package exp

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options scope an experiment run.
type Options struct {
	Cores int      // default 64
	Scale float64  // workload scale factor, default 1.0
	Seed  uint64   // default 1
	Apps  []string // subset; empty = all 20

	// Runner, when non-nil, executes (and memoizes) this experiment's
	// simulations. Sharing one Runner across experiments deduplicates
	// the Baseline/WiDir runs that several tables and figures repeat.
	Runner *Runner
}

func (o *Options) fill() {
	if o.Cores == 0 {
		o.Cores = 64
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// runner resolves the executing Runner: an explicit one, else the
// shared process-wide runner (whose memo persists across calls).
func (o *Options) runner() *Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return sharedRunner()
}

// ErrUnknownApp is wrapped into the error returned when Options.Apps
// names an application that is not in the Table IV set.
var ErrUnknownApp = errors.New("unknown application")

func (o *Options) apps() ([]workload.Profile, error) {
	var out []workload.Profile
	if len(o.Apps) == 0 {
		for _, p := range workload.Apps() {
			out = append(out, p.Scale(o.Scale))
		}
		return out, nil
	}
	for _, name := range o.Apps {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: %w %q", ErrUnknownApp, name)
		}
		out = append(out, p.Scale(o.Scale))
	}
	return out, nil
}

// AppRow is one application's pair of results.
type AppRow struct {
	App   string
	Base  *machine.Result
	WiDir *machine.Result
}

// RunPairs executes baseline+WiDir for every selected app, fanning the
// 2×len(apps) independent simulations across the runner's pool.
func RunPairs(o Options) ([]AppRow, error) {
	o.fill()
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	r := o.runner()
	res, err := Map(r, 2*len(apps), func(i int) (*machine.Result, error) {
		p := coherence.Baseline
		if i%2 == 1 {
			p = coherence.WiDir
		}
		return r.Sim(machine.DefaultConfig(o.Cores, p), apps[i/2], o.Seed)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AppRow, len(apps))
	for i, app := range apps {
		rows[i] = AppRow{App: app.Name, Base: res[2*i], WiDir: res[2*i+1]}
	}
	return rows, nil
}

// runEach runs one simulation per selected app under the given
// protocol, in app order.
func runEach(o Options, p coherence.Protocol) ([]workload.Profile, []*machine.Result, error) {
	apps, err := o.apps()
	if err != nil {
		return nil, nil, err
	}
	r := o.runner()
	res, err := Map(r, len(apps), func(i int) (*machine.Result, error) {
		return r.Sim(machine.DefaultConfig(o.Cores, p), apps[i], o.Seed)
	})
	if err != nil {
		return nil, nil, err
	}
	return apps, res, nil
}

// newTabWriter standardizes table formatting.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// ---------------------------------------------------------------------
// Table IV: Baseline L1 MPKI per application.

// Table4Row pairs the paper's MPKI with the measured one.
type Table4Row struct {
	App       string
	PaperMPKI float64
	MPKI      float64
}

// Table4 measures Baseline L1 MPKI for every application.
func Table4(o Options) ([]Table4Row, error) {
	o.fill()
	apps, res, err := runEach(o, coherence.Baseline)
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, len(apps))
	for i, app := range apps {
		rows[i] = Table4Row{App: app.Name, PaperMPKI: app.PaperMPKI, MPKI: res[i].MPKI()}
	}
	return rows, nil
}

// PrintTable4 renders the rows.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table IV: evaluated applications characterized by L1 MPKI in Baseline")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "App\tPaper MPKI\tMeasured MPKI")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.App, r.PaperMPKI, r.MPKI)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------
// Figure 5: histogram of sharers updated per wireless write.

// Fig5Row is one application's sharer-count distribution.
type Fig5Row struct {
	App       string
	Fractions [5]float64 // bins: 0-5, 6-10, 11-25, 26-49, 50+
	Mean      float64
}

// Fig5Bins labels the histogram bins as in the paper.
var Fig5Bins = [5]string{"<=5", "6-10", "11-25", "26-49", "50+"}

// Fig5 runs WiDir and collects the per-write sharer histogram.
func Fig5(o Options) ([]Fig5Row, error) {
	o.fill()
	apps, res, err := runEach(o, coherence.WiDir)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, len(apps))
	for i, app := range apps {
		row := Fig5Row{App: app.Name, Mean: res[i].MeanSharersPerUpdate}
		for b := 0; b < 5; b++ {
			row.Fractions[b] = res[i].SharersPerUpdate.Fraction(b)
		}
		rows[i] = row
	}
	return rows, nil
}

// Fig5Average aggregates the distribution across applications.
func Fig5Average(rows []Fig5Row) Fig5Row {
	avg := Fig5Row{App: "average"}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		for i := range avg.Fractions {
			avg.Fractions[i] += r.Fractions[i]
		}
		avg.Mean += r.Mean
	}
	for i := range avg.Fractions {
		avg.Fractions[i] /= float64(len(rows))
	}
	avg.Mean /= float64(len(rows))
	return avg
}

// PrintFig5 renders the rows.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: number of sharers updated upon a wireless write in WiDir")
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "App\t%s\t%s\t%s\t%s\t%s\tmean\n",
		Fig5Bins[0], Fig5Bins[1], Fig5Bins[2], Fig5Bins[3], Fig5Bins[4])
	all := append(append([]Fig5Row(nil), rows...), Fig5Average(rows))
	for _, r := range all {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.1f\n", r.App,
			100*r.Fractions[0], 100*r.Fractions[1], 100*r.Fractions[2],
			100*r.Fractions[3], 100*r.Fractions[4], r.Mean)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------
// Figure 6: normalized MPKI (read/write split).

// Fig6Row is one application's normalized MPKI.
type Fig6Row struct {
	App                   string
	BaseRead, BaseWrite   float64
	WiDirRead, WiDirWrite float64
	Normalized            float64 // WiDir total / Baseline total
}

// Fig6 computes the normalized MPKI comparison.
func Fig6(rows []AppRow) []Fig6Row {
	var out []Fig6Row
	for _, ar := range rows {
		f := Fig6Row{
			App:        ar.App,
			BaseRead:   ar.Base.ReadMPKI(),
			BaseWrite:  ar.Base.WriteMPKI(),
			WiDirRead:  ar.WiDir.ReadMPKI(),
			WiDirWrite: ar.WiDir.WriteMPKI(),
		}
		f.Normalized = stats.Ratio(ar.WiDir.MPKI(), ar.Base.MPKI())
		out = append(out, f)
	}
	return out
}

// PrintFig6 renders the rows plus the average.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: L1 MPKI in WiDir and Baseline, normalized to Baseline")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "App\tBase rd\tBase wr\tWiDir rd\tWiDir wr\tnormalized")
	var norms []float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			r.App, r.BaseRead, r.BaseWrite, r.WiDirRead, r.WiDirWrite, r.Normalized)
		norms = append(norms, r.Normalized)
	}
	fmt.Fprintf(tw, "average\t\t\t\t\t%.3f\n", stats.ArithMean(norms))
	tw.Flush()
}

// ---------------------------------------------------------------------
// Figure 7: normalized memory-operation latency (loads/stores split).

// Fig7Row is one application's normalized memory latency.
type Fig7Row struct {
	App        string
	Normalized float64 // WiDir total mem-op ROB latency / Baseline
	LoadRatio  float64
	StoreRatio float64
}

// Fig7 computes the overall-latency-of-memory-operations comparison.
func Fig7(rows []AppRow) []Fig7Row {
	var out []Fig7Row
	for _, ar := range rows {
		bTot := ar.Base.LoadROBLat + ar.Base.StoreROBLat
		wTot := ar.WiDir.LoadROBLat + ar.WiDir.StoreROBLat
		out = append(out, Fig7Row{
			App:        ar.App,
			Normalized: stats.Ratio(float64(wTot), float64(bTot)),
			LoadRatio:  stats.Ratio(float64(ar.WiDir.LoadROBLat), float64(ar.Base.LoadROBLat)),
			StoreRatio: stats.Ratio(float64(ar.WiDir.StoreROBLat), float64(ar.Base.StoreROBLat)),
		})
	}
	return out
}

// PrintFig7 renders the rows plus the average.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: overall latency of memory operations, normalized to Baseline")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "App\tloads\tstores\ttotal")
	var norms []float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", r.App, r.LoadRatio, r.StoreRatio, r.Normalized)
		norms = append(norms, r.Normalized)
	}
	fmt.Fprintf(tw, "average\t\t\t%.3f\n", stats.ArithMean(norms))
	tw.Flush()
}

// ---------------------------------------------------------------------
// Table V: wired-mesh hops per message leg in Baseline.

// Table5Result is the aggregate hop distribution.
type Table5Result struct {
	Fractions [5]float64 // bins 0-2, 3-5, 6-8, 9-11, 12+
}

// Table5Bins labels the bins as in the paper.
var Table5Bins = [5]string{"0-2", "3-5", "6-8", "9-11", "12-16"}

// Table5 aggregates hop counts across Baseline runs of all apps.
func Table5(o Options) (*Table5Result, error) {
	o.fill()
	_, res, err := runEach(o, coherence.Baseline)
	if err != nil {
		return nil, err
	}
	agg := stats.NewHistogram(0, 3, 6, 9, 12)
	for _, r := range res {
		agg.Merge(r.HopsPerLeg)
	}
	var out Table5Result
	for i := 0; i < 5; i++ {
		out.Fractions[i] = agg.Fraction(i)
	}
	return &out, nil
}

// PrintTable5 renders the distribution.
func PrintTable5(w io.Writer, t *Table5Result) {
	fmt.Fprintln(w, "Table V: distribution of network hops per leg (Baseline, 64 cores)")
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Hops per leg\t%s\t%s\t%s\t%s\t%s\n",
		Table5Bins[0], Table5Bins[1], Table5Bins[2], Table5Bins[3], Table5Bins[4])
	fmt.Fprintf(tw, "%% of messages\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
		100*t.Fractions[0], 100*t.Fractions[1], 100*t.Fractions[2],
		100*t.Fractions[3], 100*t.Fractions[4])
	tw.Flush()
}

// ---------------------------------------------------------------------
// Figure 8: normalized execution time with memory-stall split.

// Fig8Row is one application at one core count.
type Fig8Row struct {
	App            string
	TimeRatio      float64 // WiDir cycles / Baseline cycles
	BaseStallFrac  float64 // Baseline memory-stall share of cycles
	WiDirStallFrac float64
}

// Fig8 computes the execution-time comparison from pair results.
func Fig8(rows []AppRow) []Fig8Row {
	var out []Fig8Row
	for _, ar := range rows {
		out = append(out, Fig8Row{
			App:            ar.App,
			TimeRatio:      stats.Ratio(float64(ar.WiDir.Cycles), float64(ar.Base.Cycles)),
			BaseStallFrac:  stallFrac(ar.Base),
			WiDirStallFrac: stallFrac(ar.WiDir),
		})
	}
	return out
}

func stallFrac(r *machine.Result) float64 {
	return stats.Ratio(float64(r.MemStallCycles), float64(r.Cycles*uint64(r.Nodes)))
}

// PrintFig8 renders one core count's panel.
func PrintFig8(w io.Writer, cores int, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8 (%d cores): execution time normalized to Baseline\n", cores)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "App\ttime ratio\tBase stall%\tWiDir stall%")
	var ratios []float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.0f%%\t%.0f%%\n", r.App, r.TimeRatio,
			100*r.BaseStallFrac, 100*r.WiDirStallFrac)
		ratios = append(ratios, r.TimeRatio)
	}
	fmt.Fprintf(tw, "average\t%.3f\t\t\n", stats.ArithMean(ratios))
	tw.Flush()
}

// ---------------------------------------------------------------------
// Figure 9: normalized energy with component breakdown.

// Fig9Row is one application's energy comparison.
type Fig9Row struct {
	App        string
	Normalized float64            // WiDir energy / Baseline energy
	WNoCShare  float64            // WNoC share of WiDir energy
	BaseShares map[string]float64 // Baseline category shares
}

// Fig9 computes the energy comparison from pair results.
func Fig9(rows []AppRow) []Fig9Row {
	var out []Fig9Row
	for _, ar := range rows {
		r := Fig9Row{
			App:        ar.App,
			Normalized: stats.Ratio(ar.WiDir.EnergyPJ, ar.Base.EnergyPJ),
			WNoCShare:  ar.WiDir.Energy.Share("WNoC"),
			BaseShares: map[string]float64{},
		}
		for _, c := range ar.Base.Energy.Categories() {
			r.BaseShares[c] = ar.Base.Energy.Share(c)
		}
		out = append(out, r)
	}
	return out
}

// PrintFig9 renders the rows plus averages.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: energy consumed by WiDir and Baseline, normalized to Baseline")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "App\tnormalized\tWNoC share")
	var norms, wnoc []float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\n", r.App, r.Normalized, 100*r.WNoCShare)
		norms = append(norms, r.Normalized)
		wnoc = append(wnoc, r.WNoCShare)
	}
	fmt.Fprintf(tw, "average\t%.3f\t%.1f%%\n", stats.ArithMean(norms), 100*stats.ArithMean(wnoc))
	tw.Flush()
	if len(rows) > 0 {
		var cats []string
		for c := range rows[0].BaseShares {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		fmt.Fprint(w, "Baseline energy shares (first app):")
		for _, c := range cats {
			fmt.Fprintf(w, " %s=%.0f%%", c, 100*rows[0].BaseShares[c])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Figure 10: speedup over the 4-core Baseline as cores scale.

// Fig10Point is the mean speedup at one core count.
type Fig10Point struct {
	Cores        int
	BaseSpeedup  float64 // Baseline(4) time / Baseline(n) time, mean across apps
	WiDirSpeedup float64
}

// Fig10 sweeps core counts under strong scaling: the application's
// total work is fixed (the per-core step budget shrinks as cores grow),
// and speedups are relative to the 4-core Baseline, averaged (geomean)
// over the selected applications.
func Fig10(o Options, coreCounts []int) ([]Fig10Point, error) {
	o.fill()
	if len(coreCounts) == 0 {
		coreCounts = []int{4, 16, 32, 64}
	}
	const refCores = 4
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	// One flat batch: the 4-core Baseline references plus every
	// (core count, app, protocol) combination, all independent.
	type simJob struct {
		protocol coherence.Protocol
		cores    int
		app      workload.Profile
	}
	jobs := make([]simJob, 0, len(apps)*(1+2*len(coreCounts)))
	for _, app := range apps {
		jobs = append(jobs, simJob{coherence.Baseline, refCores, app})
	}
	for _, n := range coreCounts {
		for _, app := range apps {
			scaled := app.Scale(float64(refCores) / float64(n))
			jobs = append(jobs, simJob{coherence.Baseline, n, scaled})
			jobs = append(jobs, simJob{coherence.WiDir, n, scaled})
		}
	}
	r := o.runner()
	res, err := Map(r, len(jobs), func(i int) (*machine.Result, error) {
		return r.Sim(machine.DefaultConfig(jobs[i].cores, jobs[i].protocol), jobs[i].app, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	ref := make(map[string]uint64)
	for i, app := range apps {
		ref[app.Name] = res[i].Cycles
	}
	var out []Fig10Point
	idx := len(apps)
	for _, n := range coreCounts {
		var bs, ws []float64
		for _, app := range apps {
			b, wd := res[idx], res[idx+1]
			idx += 2
			bs = append(bs, float64(ref[app.Name])/float64(b.Cycles))
			ws = append(ws, float64(ref[app.Name])/float64(wd.Cycles))
		}
		out = append(out, Fig10Point{
			Cores:        n,
			BaseSpeedup:  stats.GeoMean(bs),
			WiDirSpeedup: stats.GeoMean(ws),
		})
	}
	return out, nil
}

// PrintFig10 renders the series.
func PrintFig10(w io.Writer, pts []Fig10Point) {
	fmt.Fprintln(w, "Figure 10: average speedup over the 4-core Baseline")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Cores\tBaseline\tWiDir")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%.2fx\t%.2fx\n", p.Cores, p.BaseSpeedup, p.WiDirSpeedup)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------
// Table VI: MaxWiredSharers sensitivity.

// Table6Row is one threshold's mean speedup and collision probability.
type Table6Row struct {
	MaxWiredSharers int
	Speedup         float64 // mean Baseline/WiDir execution-time ratio
	CollisionProb   float64
}

// Table6 sweeps the MaxWiredSharers threshold. The Baseline references
// (shared with Table IV) and every threshold's WiDir runs go through
// the pool as one flat batch; the default threshold's runs are the
// same simulations Fig. 5 memoizes.
func Table6(o Options, thresholds []int) ([]Table6Row, error) {
	o.fill()
	if len(thresholds) == 0 {
		thresholds = []int{2, 3, 4, 5}
	}
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	r := o.runner()
	n := len(apps)
	res, err := Map(r, n*(1+len(thresholds)), func(i int) (*machine.Result, error) {
		if i < n {
			// Baseline reference per app (threshold-independent).
			return r.Sim(machine.DefaultConfig(o.Cores, coherence.Baseline), apps[i], o.Seed)
		}
		th := thresholds[(i-n)/n]
		app := apps[(i-n)%n]
		cfg := machine.DefaultConfig(o.Cores, coherence.WiDir)
		cfg.MaxWiredSharers = th
		if th > cfg.MaxPointers {
			cfg.MaxPointers = th // the scheme requires i >= MaxWiredSharers
		}
		res, err := r.Sim(cfg, app, o.Seed)
		if err != nil {
			return nil, fmt.Errorf("th=%d: %w", th, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	base := make(map[string]uint64)
	for i, app := range apps {
		base[app.Name] = res[i].Cycles
	}
	var out []Table6Row
	for ti, th := range thresholds {
		var sp, cp []float64
		for ai, app := range apps {
			r := res[n+ti*n+ai]
			sp = append(sp, float64(base[app.Name])/float64(r.Cycles))
			cp = append(cp, r.CollisionProb)
		}
		out = append(out, Table6Row{
			MaxWiredSharers: th,
			Speedup:         stats.GeoMean(sp),
			CollisionProb:   stats.ArithMean(cp),
		})
	}
	return out, nil
}

// PrintTable6 renders the rows.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table VI: sensitivity to MaxWiredSharers")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "MaxWiredSharers\tSpeedup\tColl. prob.")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2fx\t%.2f%%\n", r.MaxWiredSharers, r.Speedup, 100*r.CollisionProb)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------
// §II-C motivation: sharers accumulated under update-writes and the
// re-read fraction after a write.

// MotivationResult reports the two §II-C statistics measured under
// WiDir (whose W state realizes the "writes update rather than
// invalidate" model the paper instrumented).
type MotivationResult struct {
	MeanSharersPerWrite float64 // paper: ~21
	ReReadFraction      float64 // paper: ~56%
}

// Motivation measures the update-mode sharing statistics.
func Motivation(o Options) (*MotivationResult, error) {
	o.fill()
	_, res, err := runEach(o, coherence.WiDir)
	if err != nil {
		return nil, err
	}
	var sharers []float64
	var consumed, updates float64
	for _, r := range res {
		if r.MeanSharersPerUpdate > 0 {
			sharers = append(sharers, r.MeanSharersPerUpdate)
		}
		// Re-read fraction: updates that were read by the receiving
		// core before the next update arrived, i.e. updates that did
		// not contribute to decay. Receivers that self-invalidate lost
		// UpdateCountMax updates unread.
		updates += float64(r.UpdatesReceived)
		consumed += float64(r.UpdatesReceived) - 3*float64(r.SelfInvalidations)
	}
	m := &MotivationResult{MeanSharersPerWrite: stats.ArithMean(sharers)}
	if updates > 0 {
		m.ReReadFraction = consumed / updates
	}
	return m, nil
}

// PrintMotivation renders the result.
func PrintMotivation(w io.Writer, m *MotivationResult) {
	fmt.Fprintln(w, "Section II-C motivation: update-mode sharing statistics")
	fmt.Fprintf(w, "mean sharers updated per write: %.1f (paper: ~21)\n", m.MeanSharersPerWrite)
	fmt.Fprintf(w, "fraction of updates re-read before the next write: %.0f%% (paper: ~56%%)\n", 100*m.ReReadFraction)
}

// ---------------------------------------------------------------------
// CSV output: machine-readable versions of the main series, for
// plotting. One function per figure-like experiment.

// CSVFig8 writes "app,time_ratio,base_stall,widir_stall" rows.
func CSVFig8(w io.Writer, cores int, rows []Fig8Row) {
	fmt.Fprintf(w, "# fig8 cores=%d\n", cores)
	fmt.Fprintln(w, "app,time_ratio,base_stall_frac,widir_stall_frac")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f\n", r.App, r.TimeRatio, r.BaseStallFrac, r.WiDirStallFrac)
	}
}

// CSVFig5 writes one row per app with the five bin fractions.
func CSVFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "app,le5,b6_10,b11_25,b26_49,b50p,mean")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f\n", r.App,
			r.Fractions[0], r.Fractions[1], r.Fractions[2], r.Fractions[3], r.Fractions[4], r.Mean)
	}
}

// CSVFig10 writes the speedup series.
func CSVFig10(w io.Writer, pts []Fig10Point) {
	fmt.Fprintln(w, "cores,baseline_speedup,widir_speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%d,%.4f,%.4f\n", p.Cores, p.BaseSpeedup, p.WiDirSpeedup)
	}
}

// CSVTable6 writes the threshold sweep.
func CSVTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "max_wired_sharers,speedup,collision_prob")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%.4f,%.4f\n", r.MaxWiredSharers, r.Speedup, r.CollisionProb)
	}
}
