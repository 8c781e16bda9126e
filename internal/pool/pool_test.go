package pool

import "testing"

type rec struct{ a, b int }

func TestPopEmptyIsNil(t *testing.T) {
	var f Free[rec]
	if p := f.Pop(); p != nil {
		t.Fatalf("Pop on an empty list = %v, want nil", p)
	}
}

func TestLIFO(t *testing.T) {
	var f Free[rec]
	x, y, z := &rec{a: 1}, &rec{a: 2}, &rec{a: 3}
	f.Put(x)
	f.Put(y)
	f.Put(z)
	for i, want := range []*rec{z, y, x} {
		if got := f.Pop(); got != want {
			t.Fatalf("Pop %d = %p, want %p", i, got, want)
		}
	}
	if f.Pop() != nil || len(f) != 0 {
		t.Fatal("list not empty after popping everything put")
	}
}

func TestGetEmptyIsZero(t *testing.T) {
	var f Free[rec]
	p := f.Get()
	if p == nil || *p != (rec{}) {
		t.Fatalf("Get on an empty list = %v, want a zero record", p)
	}
	q := &rec{a: 7, b: 9}
	f.Put(q)
	if got := f.Get(); got != q || *got != (rec{a: 7, b: 9}) {
		t.Fatalf("Get after Put = %v, want the record put, unchanged", got)
	}
}
