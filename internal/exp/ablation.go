// Ablations: the design choices DESIGN.md calls out, each run against
// the alternative it was chosen over. Not paper figures, so
// widir-experiments runs them on demand only (-exp ablations).

package exp

import (
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/wireless"
	"repro/internal/workload"
)

// AblationResult holds the three ablations at one core count.
type AblationResult struct {
	Cores int

	// Baseline radiosity under the two limited-pointer overflow
	// schemes: Dir_iB broadcast bit vs Dir_iCV_4 coarse vector (§II-C).
	DirB, DirCV *machine.Result

	// WiDir radiosity over the paper's BRS MAC vs a collision-free
	// token-passing MAC (§VII: "practically any other WNoC MAC
	// protocol could be used").
	BRS, Token *machine.Result

	// WiDir barnes per UpdateCount decay threshold (§III-B2's 2-bit
	// counter is threshold 3), Decay[i] at UpdateCounts[i].
	UpdateCounts []int
	Decay        []*machine.Result
}

// Ablations runs the three ablations on fixed applications (radiosity
// and barnes, whatever Options.Apps says) at Options.Cores and Scale,
// as one flat batch through the runner.
func Ablations(o Options) (*AblationResult, error) {
	o.fill()
	o.Apps = []string{"radiosity", "barnes"}
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	radiosity, barnes := apps[0], apps[1]

	dirB := machine.DefaultConfig(o.Cores, coherence.Baseline)
	dirCV := dirB
	dirCV.DirScheme = coherence.DirCV
	dirCV.CoarseRegion = 4
	brs := machine.DefaultConfig(o.Cores, coherence.WiDir)
	token := brs
	token.MAC = wireless.MACToken
	type simJob struct {
		cfg machine.Config
		app workload.Profile
	}
	jobs := []simJob{{dirB, radiosity}, {dirCV, radiosity}, {brs, radiosity}, {token, radiosity}}
	counts := []int{1, 3, 6}
	for _, n := range counts {
		cfg := brs
		cfg.UpdateCountMax = n
		jobs = append(jobs, simJob{cfg, barnes})
	}

	r := o.runner()
	res, err := Map(r, len(jobs), func(i int) (*machine.Result, error) {
		return r.Sim(jobs[i].cfg, jobs[i].app, o.Seed)
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Cores: o.Cores,
		DirB:  res[0], DirCV: res[1],
		BRS: res[2], Token: res[3],
		UpdateCounts: counts, Decay: res[4:],
	}, nil
}

// PrintAblations renders the three ablations.
func PrintAblations(w io.Writer, a *AblationResult) {
	fmt.Fprintf(w, "Ablation Dir_iB vs Dir_iCV_4 (radiosity, %d cores):\n", a.Cores)
	fmt.Fprintf(w, "  Dir_iB:    %d cycles, %d invalidations\n", a.DirB.Cycles, a.DirB.Invalidations)
	fmt.Fprintf(w, "  Dir_iCV_4: %d cycles, %d invalidations\n", a.DirCV.Cycles, a.DirCV.Invalidations)
	fmt.Fprintf(w, "Ablation BRS vs Token MAC (radiosity WiDir, %d cores):\n", a.Cores)
	fmt.Fprintf(w, "  BRS:   %d cycles, coll.prob %.1f%%\n", a.BRS.Cycles, 100*a.BRS.CollisionProb)
	fmt.Fprintf(w, "  Token: %d cycles, coll.prob %.1f%%\n", a.Token.Cycles, 100*a.Token.CollisionProb)
	fmt.Fprintf(w, "Ablation UpdateCount threshold (barnes WiDir, %d cores):\n", a.Cores)
	for i, n := range a.UpdateCounts {
		r := a.Decay[i]
		fmt.Fprintf(w, "  threshold %d: %d cycles, %d self-invalidations, %d W->S\n",
			n, r.Cycles, r.SelfInvalidations, r.WToS)
	}
}
