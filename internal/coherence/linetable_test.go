package coherence

import (
	"testing"

	"repro/internal/addrspace"
)

// TestLineTableMatchesMap drives a lineTable and a map through the same
// random put/del sequence over a small key space (so probe chains
// collide, wrap and get shifted back into holes) and checks every key
// after every step. Keys are strided like real lines.
func TestLineTableMatchesMap(t *testing.T) {
	var tab lineTable[int]
	ref := map[addrspace.Line]int{}
	seed := uint64(7)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for step := 0; step < 20000; step++ {
		l := addrspace.Line(next()%48) << 14
		if next()%3 == 0 {
			_, want := ref[l]
			if got := tab.del(l); got != want {
				t.Fatalf("step %d: del(%#x) = %v, want %v", step, l, got, want)
			}
			delete(ref, l)
		} else {
			v := int(next())
			tab.put(l, v)
			ref[l] = v
		}
		if tab.length() != len(ref) {
			t.Fatalf("step %d: length %d, want %d", step, tab.length(), len(ref))
		}
		for k := addrspace.Line(0); k < 48; k++ {
			got, ok := tab.get(k << 14)
			want, wantOK := ref[k<<14]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: get(%#x) = %d,%v, want %d,%v", step, k<<14, got, ok, want, wantOK)
			}
		}
	}
	n := 0
	tab.forEach(func(l addrspace.Line, v int) bool {
		if ref[l] != v {
			t.Errorf("forEach visited %#x=%d, want %d", l, v, ref[l])
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Errorf("forEach visited %d entries, want %d", n, len(ref))
	}
}
