// JSON round-trips for the measurement types. The experiment runner's
// persistent result cache (internal/exp) stores machine.Result values
// as JSON, and a cached result must re-encode to the exact bytes of a
// fresh run's encoding — so both marshalers emit a canonical form with
// no map iteration: ordered parallel arrays, fixed field order, and
// encoding/json's shortest-round-trip float formatting.
package stats

import (
	"encoding/json"
	"fmt"
)

// histogramJSON is the canonical wire form: bin edges plus counts.
// Labels are derived from the edges and rebuilt on decode.
type histogramJSON struct {
	Edges  []int    `json:"edges"`
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram as {"edges":[...],"counts":[...]}.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Edges: h.edges, Counts: h.counts})
}

// UnmarshalJSON rebuilds the histogram (including its labels) from the
// canonical wire form. The edges must satisfy the NewHistogram
// contract; counts must match the edge count.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Edges) == 0 {
		return fmt.Errorf("stats: histogram JSON has no edges")
	}
	for i := 1; i < len(w.Edges); i++ {
		if w.Edges[i] <= w.Edges[i-1] {
			return fmt.Errorf("stats: histogram JSON edges not strictly increasing")
		}
	}
	if len(w.Counts) != len(w.Edges) {
		return fmt.Errorf("stats: histogram JSON has %d counts for %d edges", len(w.Counts), len(w.Edges))
	}
	*h = *NewHistogram(w.Edges...)
	copy(h.counts, w.Counts)
	return nil
}

// breakdownJSON is the canonical wire form: category names in
// reporting order with a parallel value array (no map, so encoding is
// byte-stable and decoding restores the reporting order exactly).
type breakdownJSON struct {
	Categories []string  `json:"categories"`
	Values     []float64 `json:"values"`
}

// MarshalJSON encodes the breakdown as ordered parallel arrays.
func (b *Breakdown) MarshalJSON() ([]byte, error) {
	w := breakdownJSON{
		Categories: b.order,
		Values:     make([]float64, len(b.order)),
	}
	for i, c := range b.order {
		w.Values[i] = b.vals[c]
	}
	return json.Marshal(w)
}

// UnmarshalJSON rebuilds the breakdown, preserving category order.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var w breakdownJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Values) != len(w.Categories) {
		return fmt.Errorf("stats: breakdown JSON has %d values for %d categories", len(w.Values), len(w.Categories))
	}
	nb := NewBreakdown(w.Categories...)
	for i, c := range w.Categories {
		nb.vals[c] = w.Values[i]
	}
	*b = *nb
	return nil
}
