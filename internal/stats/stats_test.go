package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 6 {
		t.Fatalf("got %d, want 6", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 3, 6, 9, 12)
	cases := map[int]int{
		0: 0, 2: 0, 3: 1, 5: 1, 6: 2, 8: 2, 9: 3, 11: 3, 12: 4, 100: 4,
		-1: 0, // below the first edge clamps to bin 0
	}
	for v, bin := range cases {
		h2 := NewHistogram(0, 3, 6, 9, 12)
		h2.Observe(v)
		if h2.Count(bin) != 1 {
			t.Errorf("Observe(%d): expected bin %d", v, bin)
		}
	}
	_ = h
}

func TestHistogramLabels(t *testing.T) {
	h := NewHistogram(0, 3, 6, 9, 12)
	want := []string{"0-2", "3-5", "6-8", "9-11", "12+"}
	for i, w := range want {
		if h.Label(i) != w {
			t.Errorf("label %d = %q, want %q", i, h.Label(i), w)
		}
	}
	h2 := NewHistogram(1, 2, 3)
	if h2.Label(0) != "1" || h2.Label(1) != "2" || h2.Label(2) != "3+" {
		t.Errorf("unit labels: %q %q %q", h2.Label(0), h2.Label(1), h2.Label(2))
	}
}

func TestHistogramTotalInvariant(t *testing.T) {
	if err := quick.Check(func(vals []uint8) bool {
		h := NewHistogram(0, 10, 20, 40)
		for _, v := range vals {
			h.Observe(int(v))
		}
		if h.Total() != uint64(len(vals)) {
			return false
		}
		var sum float64
		for i := 0; i < h.Bins(); i++ {
			sum += h.Fraction(i)
		}
		return len(vals) == 0 || math.Abs(sum-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 5)
	b := NewHistogram(0, 5)
	a.Observe(1)
	b.Observe(7)
	b.Observe(2)
	a.Merge(b)
	if a.Count(0) != 2 || a.Count(1) != 1 {
		t.Fatalf("merge: %d %d", a.Count(0), a.Count(1))
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	NewHistogram(0, 5).Merge(NewHistogram(0, 6))
}

func TestHistogramBadEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing edges did not panic")
		}
	}()
	NewHistogram(3, 3)
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("a", "b")
	b.Add("a", 30)
	b.Add("b", 60)
	b.Add("c", 10) // late category appends
	if b.Total() != 100 {
		t.Fatalf("total = %v", b.Total())
	}
	if b.Share("a") != 0.3 || b.Share("c") != 0.1 {
		t.Fatalf("shares: %v %v", b.Share("a"), b.Share("c"))
	}
	cats := b.Categories()
	if len(cats) != 3 || cats[0] != "a" || cats[2] != "c" {
		t.Fatalf("categories: %v", cats)
	}
	if !strings.Contains(b.String(), "a=30") {
		t.Fatalf("String: %s", b.String())
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown("x")
	if b.Share("x") != 0 {
		t.Fatal("empty share not zero")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("divide by zero not guarded")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("ratio wrong")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("geomean = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean not zero")
	}
	// Non-positive entries are ignored.
	got = GeoMean([]float64{0, -1, 9})
	if math.Abs(got-9) > 1e-9 {
		t.Fatalf("geomean with junk = %v", got)
	}
}

func TestGeoMeanOrderInvariant(t *testing.T) {
	if err := quick.Check(func(a, b, c uint8) bool {
		x := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		y := []float64{x[2], x[0], x[1]}
		return math.Abs(GeoMean(x)-GeoMean(y)) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArithMean(t *testing.T) {
	if ArithMean(nil) != 0 {
		t.Fatal("empty mean not zero")
	}
	if ArithMean([]float64{2, 4}) != 3 {
		t.Fatal("mean wrong")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 10)
	h.Observe(5)
	if !strings.Contains(h.String(), "0-9:100.0%") {
		t.Fatalf("String: %s", h.String())
	}
}

func TestPercentileEmpty(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	if p := h.Percentile(0.5); p != 0 {
		t.Fatalf("empty histogram P50=%v, want 0", p)
	}
}

func TestPercentileSingleBin(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	// All samples sit in [0,10): every quantile interpolates inside it.
	if p := h.P50(); p != 5 {
		t.Fatalf("P50=%v, want 5 (midpoint of the only occupied bin)", p)
	}
	if p := h.Percentile(1); p != 10 {
		t.Fatalf("P100=%v, want the bin's upper edge", p)
	}
	if p := h.Percentile(0); p != 0 {
		t.Fatalf("P0=%v, want the bin's lower edge", p)
	}
}

func TestPercentileOverflowBin(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	for i := 0; i < 10; i++ {
		h.Observe(1000) // unbounded final bin
	}
	// The overflow bin has no upper edge: the estimate clamps to its
	// lower edge rather than inventing a bound.
	if p := h.P99(); p != 20 {
		t.Fatalf("P99=%v, want 20 (overflow bin lower edge)", p)
	}
}

func TestPercentileInterpolatesAndClamps(t *testing.T) {
	h := NewHistogram(0, 100)
	for i := 0; i < 50; i++ {
		h.Observe(1)
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Fatalf("P50=%v, want 50 (midpoint of [0,100) under uniform interpolation)", p)
	}
	if p := h.Percentile(-1); p != h.Percentile(0) {
		t.Fatal("p<0 must clamp to 0")
	}
	if p := h.Percentile(2); p != h.Percentile(1) {
		t.Fatal("p>1 must clamp to 1")
	}
}

func TestPercentileSkipsEmptyBins(t *testing.T) {
	h := NewHistogram(0, 10, 20, 30, 40)
	for i := 0; i < 4; i++ {
		h.Observe(5)
	}
	for i := 0; i < 4; i++ {
		h.Observe(35)
	}
	// P95 falls in the [30,40) bin even though [10,30) is empty.
	if p := h.P95(); p < 30 || p > 40 {
		t.Fatalf("P95=%v, want within [30,40]", p)
	}
	if p := h.Percentile(0.25); p > 10 {
		t.Fatalf("P25=%v, want within the first bin", p)
	}
}
