package stats_test

import (
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestObserveMatchesBinarySearch pins Observe's linear scan to the
// binary-search formula it replaced, for every histogram shape the
// tree constructs and every value from two below the first edge to two
// above the last.
func TestObserveMatchesBinarySearch(t *testing.T) {
	shapes := [][]int{
		{0, 3, 6, 9, 12},   // mesh hops per leg (Table V)
		{0, 6, 11, 26, 50}, // sharers per update (Fig. 5)
		coherence.MissLatencyBins,
		obs.LatencyBins(),
		// shapes the stats tests build
		{1, 2, 3}, {0, 10, 20, 40}, {0, 5}, {0, 10}, {0, 10, 20}, {0, 100}, {0, 10, 20, 30, 40},
	}
	for _, edges := range shapes {
		h := stats.NewHistogram(edges...)
		for v := edges[0] - 2; v <= edges[len(edges)-1]+2; v++ {
			want := max(sort.SearchInts(edges, v+1)-1, 0)
			before := h.Count(want)
			h.Observe(v)
			if h.Count(want) != before+1 {
				t.Fatalf("edges %v: value %d not in bin %d", edges, v, want)
			}
		}
	}
}
