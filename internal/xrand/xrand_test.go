package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	c := a.Split()
	// The split stream must not simply mirror the parent.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent (%d collisions)", same)
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		n = n%1000 + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.24 || frac > 0.26 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}
