package coherence

import (
	"sort"

	"repro/internal/addrspace"
)

// lineTable is a flat, open-addressed hash table from line address to V:
// the struct-of-arrays replacement for the per-line Go maps that used to
// sit on the simulator's hottest paths (the directory's entry table and
// the L1's pending/victim/wireless-write tables). Keys, slot metadata
// and values live in three parallel arrays, so a probe scans only the
// compact key and metadata arrays — no map-runtime calls, no per-entry
// boxing, and the common miss resolves within one cache line of slots.
//
// Every operation is deterministic: slot layout is a pure function of
// the put/del call sequence, which the simulator's determinism contract
// already fixes. Unordered iteration (forEach) is therefore reproducible
// across runs — unlike Go map ranges — but ordered dumps still go
// through sortedKeys so they stay stable across table-sizing changes.
//
// Deletion shifts the rest of the probe chain back instead of leaving
// a tombstone, so a table that churns at a steady size never rebuilds:
// its arrays are reallocated only when it doubles.
type lineTable[V any] struct {
	keys []addrspace.Line
	live []bool
	vals []V
	mask uint64
	n    int // live slots
}

const lineTableMinCap = 16

// hashLine mixes the line address. Lines are strided and low-entropy in
// the low bits, so a Fibonacci multiply spreads them; the table masks
// the high product bits down to a slot.
func hashLine(l addrspace.Line) uint64 {
	const phi = 0x9E3779B97F4A7C15
	h := uint64(l) * phi
	return h ^ (h >> 29)
}

func (t *lineTable[V]) grow(n int) {
	oldKeys, oldLive, oldVals := t.keys, t.live, t.vals
	t.keys = make([]addrspace.Line, n)
	t.live = make([]bool, n)
	t.vals = make([]V, n)
	t.mask = uint64(n - 1)
	for i, ok := range oldLive {
		if !ok {
			continue
		}
		j := hashLine(oldKeys[i]) & t.mask
		for t.live[j] {
			j = (j + 1) & t.mask
		}
		t.keys[j] = oldKeys[i]
		t.live[j] = true
		t.vals[j] = oldVals[i]
	}
}

// find returns the slot holding the line, or -1.
func (t *lineTable[V]) find(l addrspace.Line) int {
	if t.live == nil {
		return -1
	}
	for i := hashLine(l) & t.mask; t.live[i]; i = (i + 1) & t.mask {
		if t.keys[i] == l {
			return int(i)
		}
	}
	return -1
}

// get returns the value stored for the line, or the zero V.
func (t *lineTable[V]) get(l addrspace.Line) (V, bool) {
	if i := t.find(l); i >= 0 {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// put inserts or replaces the value for the line.
func (t *lineTable[V]) put(l addrspace.Line, v V) {
	if t.live == nil {
		t.grow(lineTableMinCap)
	} else if (t.n+1)*4 >= len(t.live)*3 {
		t.grow(len(t.live) << 1) // keep probe chains short
	}
	i := hashLine(l) & t.mask
	for ; t.live[i]; i = (i + 1) & t.mask {
		if t.keys[i] == l {
			t.vals[i] = v
			return
		}
	}
	t.keys[i] = l
	t.live[i] = true
	t.vals[i] = v
	t.n++
}

// del removes the line's entry, reporting whether it was present. The
// entries after it in its probe chain move back into the hole whenever
// their home slot allows, so every chain stays unbroken without
// tombstones (linear probing's backward-shift deletion).
func (t *lineTable[V]) del(l addrspace.Line) bool {
	hole := t.find(l)
	if hole < 0 {
		return false
	}
	i := uint64(hole)
	for j := (i + 1) & t.mask; t.live[j]; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i only if its home slot
		// does not lie cyclically in (i, j]: otherwise a lookup would
		// start past the hole and miss it.
		if home := hashLine(t.keys[j]) & t.mask; (j-home)&t.mask < (j-i)&t.mask {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
	t.live[i] = false
	var zero V
	t.vals[i] = zero // drop references so the GC can reclaim them
	t.n--
	return true
}

// length returns the number of live entries.
func (t *lineTable[V]) length() int { return t.n }

// forEach visits live entries in slot order. The order is deterministic
// (a pure function of the call history) but not sorted; callers that
// render output use sortedKeys instead, and order-independent scans
// (any-of, min-by-unique-key) may use forEach directly.
func (t *lineTable[V]) forEach(fn func(addrspace.Line, V) bool) {
	for i, ok := range t.live {
		if ok && !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// sortedKeys returns the live lines in ascending order, for dumps and
// diagnostics that must be byte-identical across runs and refactors.
func (t *lineTable[V]) sortedKeys() []addrspace.Line {
	lines := make([]addrspace.Line, 0, t.n)
	for i, ok := range t.live {
		if ok {
			lines = append(lines, t.keys[i])
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}
