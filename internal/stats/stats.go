// Package stats provides the counters, histograms and breakdown tables
// used to collect and report simulation measurements. All types have a
// useful zero value except Histogram, which needs its bin edges.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Histogram counts samples into caller-defined integer bins. A sample v
// falls into bin i where i is the largest index with edges[i] <= v; a
// sample below the first edge is counted in bin 0.
type Histogram struct {
	edges  []int
	counts []uint64
	labels []string
}

// NewHistogram builds a histogram whose bin i covers [edges[i],
// edges[i+1]); the final bin is unbounded above. Edges must be strictly
// increasing and non-empty.
func NewHistogram(edges ...int) *Histogram {
	if len(edges) == 0 {
		panic("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly increasing")
		}
	}
	h := &Histogram{
		edges:  append([]int(nil), edges...),
		counts: make([]uint64, len(edges)),
		labels: make([]string, len(edges)),
	}
	for i := range edges {
		if i == len(edges)-1 {
			h.labels[i] = fmt.Sprintf("%d+", edges[i])
		} else if edges[i+1]-edges[i] == 1 {
			h.labels[i] = fmt.Sprintf("%d", edges[i])
		} else {
			h.labels[i] = fmt.Sprintf("%d-%d", edges[i], edges[i+1]-1)
		}
	}
	return h
}

// Observe adds one sample with the given value.
// The simulator's histograms have five or six edges and are observed
// once per packet or miss, so a linear scan down from the top edge
// beats a binary search.
func (h *Histogram) Observe(v int) {
	i := len(h.edges) - 1
	for i > 0 && v < h.edges[i] {
		i--
	}
	h.counts[i]++
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the count in bin i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Label returns the human-readable range label for bin i.
func (h *Histogram) Label(i int) string { return h.labels[i] }

// Total returns the total number of observed samples.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Fraction returns bin i's share of all samples, or 0 when empty.
func (h *Histogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(t)
}

// Percentile estimates the p-quantile (p in [0,1], clamped) of the
// observed samples: it walks the cumulative bin counts to the bin
// containing the quantile and interpolates linearly inside it. The
// final bin is unbounded above, so samples landing there report the
// bin's lower edge — a deliberate underestimate that keeps the result
// finite. An empty histogram reports 0.
func (h *Histogram) Percentile(p float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := float64(h.edges[i])
			if i == len(h.edges)-1 {
				return lo // unbounded overflow bin
			}
			hi := float64(h.edges[i+1])
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(h.edges[len(h.edges)-1])
}

// P50 returns the median estimate.
func (h *Histogram) P50() float64 { return h.Percentile(0.50) }

// P95 returns the 95th-percentile estimate.
func (h *Histogram) P95() float64 { return h.Percentile(0.95) }

// P99 returns the 99th-percentile estimate.
func (h *Histogram) P99() float64 { return h.Percentile(0.99) }

// Merge adds the counts of other (which must have identical edges).
func (h *Histogram) Merge(other *Histogram) {
	if len(h.edges) != len(other.edges) {
		panic("stats: merging histograms with different shapes")
	}
	for i, e := range h.edges {
		if other.edges[i] != e {
			panic("stats: merging histograms with different edges")
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// String renders the histogram as "label:percent%" fields.
func (h *Histogram) String() string {
	var b strings.Builder
	for i := range h.counts {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s:%.1f%%", h.labels[i], 100*h.Fraction(i))
	}
	return b.String()
}

// Breakdown accumulates named quantities (e.g. energy by component or
// cycles by category) and reports shares and totals.
type Breakdown struct {
	order []string
	vals  map[string]float64
}

// NewBreakdown creates a breakdown with a fixed category order for
// reporting. Categories not listed can still be added and will follow
// in insertion order.
func NewBreakdown(categories ...string) *Breakdown {
	b := &Breakdown{vals: make(map[string]float64)}
	for _, c := range categories {
		b.order = append(b.order, c)
		b.vals[c] = 0
	}
	return b
}

// Add accumulates v into the named category.
func (b *Breakdown) Add(category string, v float64) {
	if _, ok := b.vals[category]; !ok {
		b.order = append(b.order, category)
	}
	b.vals[category] += v
}

// Get returns the accumulated value for a category.
func (b *Breakdown) Get(category string) float64 { return b.vals[category] }

// Total returns the sum across all categories. The sum walks the
// reporting order, not the map: float addition is non-associative, so
// summing in randomized map order would make the last ulp of the total
// vary between runs of the same simulation.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, c := range b.order {
		t += b.vals[c]
	}
	return t
}

// Categories returns the category names in reporting order.
func (b *Breakdown) Categories() []string {
	return append([]string(nil), b.order...)
}

// Share returns the category's fraction of the total, or 0 when empty.
func (b *Breakdown) Share(category string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.vals[category] / t
}

// String renders "name=value(share%)" fields in order.
func (b *Breakdown) String() string {
	var s strings.Builder
	for i, c := range b.order {
		if i > 0 {
			s.WriteString("  ")
		}
		fmt.Fprintf(&s, "%s=%.3g(%.1f%%)", c, b.vals[c], 100*b.Share(c))
	}
	return s.String()
}

// Ratio returns a/b, or 0 when b is 0; a convenience for normalized
// reporting (WiDir / Baseline).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GeoMean returns the geometric mean of xs, ignoring non-positive
// entries; it returns 0 if no positive entries exist. Used for averaging
// normalized ratios across applications, matching common practice in
// architecture papers.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of xs (0 for empty input).
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
