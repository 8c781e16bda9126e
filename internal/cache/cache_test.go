package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
)

func smallCache() *Cache {
	// 4 sets x 2 ways.
	return New(Config{SizeBytes: 8 * addrspace.LineSize, Ways: 2})
}

// lineInSet returns the i-th line that maps to the given set.
func lineInSet(c *Cache, set, i int) addrspace.Line {
	return addrspace.Line(set + i*c.Sets())
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeBytes: 64 << 10, Ways: 2}
	if cfg.Sets() != 512 {
		t.Fatalf("sets = %d", cfg.Sets())
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	Config{SizeBytes: 100, Ways: 3}.Sets()
}

func TestInstallLookup(t *testing.T) {
	c := smallCache()
	var words [addrspace.WordsPerLine]uint64
	words[3] = 42
	c.Install(5, Shared, words)
	ln := c.Lookup(5)
	if ln == nil || ln.State != Shared || ln.Words[3] != 42 {
		t.Fatal("install/lookup failed")
	}
	if c.Lookup(6) != nil {
		t.Fatal("phantom line")
	}
}

func TestInstallReusesResidentSlot(t *testing.T) {
	c := smallCache()
	c.Install(5, Shared, [addrspace.WordsPerLine]uint64{1})
	before := c.CountValid()
	c.Install(5, Modified, [addrspace.WordsPerLine]uint64{2})
	if c.CountValid() != before {
		t.Fatal("reinstall grew the cache")
	}
	ln := c.Lookup(5)
	if ln.State != Modified || ln.Words[0] != 2 {
		t.Fatal("reinstall did not update in place")
	}
}

func TestLRUVictim(t *testing.T) {
	c := smallCache()
	a, b, d := lineInSet(c, 0, 0), lineInSet(c, 0, 1), lineInSet(c, 0, 2)
	c.Install(a, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	// Touch a so b becomes LRU.
	c.Touch(a)
	v, ok := c.Victim(d)
	if !ok || v == nil || v.Addr != b {
		t.Fatalf("victim = %+v, want line %d", v, b)
	}
}

func TestVictimFreeWay(t *testing.T) {
	c := smallCache()
	c.Install(lineInSet(c, 1, 0), Shared, [addrspace.WordsPerLine]uint64{})
	v, ok := c.Victim(lineInSet(c, 1, 1))
	if !ok || v != nil {
		t.Fatal("expected free way")
	}
}

func TestVictimSkipsPinned(t *testing.T) {
	c := smallCache()
	a, b, d := lineInSet(c, 2, 0), lineInSet(c, 2, 1), lineInSet(c, 2, 2)
	la := c.Install(a, Modified, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	c.Touch(b)
	la.NonEvict = true // a is LRU but pinned
	v, ok := c.Victim(d)
	if !ok || v == nil || v.Addr != b {
		t.Fatalf("pinned line not skipped: %+v", v)
	}
}

func TestVictimAllPinned(t *testing.T) {
	c := smallCache()
	la := c.Install(lineInSet(c, 3, 0), Modified, [addrspace.WordsPerLine]uint64{})
	lb := c.Install(lineInSet(c, 3, 1), Modified, [addrspace.WordsPerLine]uint64{})
	la.NonEvict = true
	lb.NonEvict = true
	if _, ok := c.Victim(lineInSet(c, 3, 2)); ok {
		t.Fatal("fully pinned set reported a victim")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Install(9, Exclusive, [addrspace.WordsPerLine]uint64{7})
	old, ok := c.Invalidate(9)
	if !ok || old.Words[0] != 7 {
		t.Fatal("invalidate did not return contents")
	}
	if c.Lookup(9) != nil {
		t.Fatal("line survived invalidation")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate returned a line")
	}
}

func TestTouchUpdatesLRU(t *testing.T) {
	c := smallCache()
	a, b := lineInSet(c, 0, 0), lineInSet(c, 0, 1)
	c.Install(a, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(b, Shared, [addrspace.WordsPerLine]uint64{})
	c.Touch(a) // now b is oldest
	v, _ := c.Victim(lineInSet(c, 0, 2))
	if v.Addr != b {
		t.Fatal("touch did not refresh LRU")
	}
	if c.Touch(lineInSet(c, 0, 3)) != nil {
		t.Fatal("touch of absent line returned a slot")
	}
}

func TestForEachAndCount(t *testing.T) {
	c := smallCache()
	c.Install(1, Shared, [addrspace.WordsPerLine]uint64{})
	c.Install(2, Modified, [addrspace.WordsPerLine]uint64{})
	n := 0
	c.ForEach(func(ln *Line) { n++ })
	if n != 2 || c.CountValid() != 2 {
		t.Fatalf("count = %d/%d", n, c.CountValid())
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Wireless: "W",
	} {
		if st.String() != want {
			t.Errorf("%v != %s", st, want)
		}
	}
	if Invalid.Valid() || !Wireless.Valid() {
		t.Fatal("Valid() wrong")
	}
}

// TestResidencyProperty: after any sequence of installs and
// invalidations, Lookup agrees with the shadow model for the touched
// lines, and the per-set way count never exceeds associativity.
func TestResidencyProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		c := smallCache()
		shadow := map[addrspace.Line]bool{}
		for _, op := range ops {
			line := addrspace.Line(op % 32)
			if op&0x8000 != 0 {
				c.Invalidate(line)
				shadow[line] = false
			} else {
				c.Install(line, Shared, [addrspace.WordsPerLine]uint64{})
				shadow[line] = true
				// Installing may evict others in the same set.
				for l, res := range shadow {
					if res && l != line && c.Lookup(l) == nil {
						shadow[l] = false
					}
				}
			}
		}
		for l, res := range shadow {
			got := c.Lookup(l) != nil
			if got != res {
				return false
			}
		}
		// Way-count invariant.
		per := map[int]int{}
		c.ForEach(func(ln *Line) { per[int(uint64(ln.Addr)%uint64(c.Sets()))]++ })
		for _, n := range per {
			if n > c.Ways() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetIndexMatchesModulo checks the two set-index paths (mask for
// power-of-two set counts, division otherwise) against line % sets.
func TestSetIndexMatchesModulo(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 64 << 10, Ways: 2},                // Table III L1: 512 sets
		{SizeBytes: 8 * addrspace.LineSize, Ways: 2},  // 4 sets
		{SizeBytes: 2 * addrspace.LineSize, Ways: 2},  // 1 set
		{SizeBytes: 6 * addrspace.LineSize, Ways: 2},  // 3 sets
		{SizeBytes: 12 * addrspace.LineSize, Ways: 1}, // 12 sets
		{SizeBytes: 20 * addrspace.LineSize, Ways: 4}, // 5 sets
	} {
		c := New(cfg)
		sets := uint64(cfg.Sets())
		for _, l := range []addrspace.Line{0, 1, 2, 3, 7, 511, 512, 513, 0x40007, 0x80000, 1<<40 + 5, ^addrspace.Line(0)} {
			if got, want := c.setIndex(l), int(uint64(l)%sets); got != want {
				t.Errorf("%+v: setIndex(%#x) = %d, want %d", cfg, l, got, want)
			}
		}
	}
}

// refCache is the flat-array cache the way table replaced: sets*ways
// Lines, set-major, an empty way being an Invalid Line in place. It is
// the reference FuzzCacheArray checks Cache against.
type refCache struct {
	sets, ways int
	lines      []Line
	clock      uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.Sets()
	return &refCache{sets: sets, ways: cfg.Ways, lines: make([]Line, sets*cfg.Ways)}
}

func (c *refCache) base(l addrspace.Line) int { return int(uint64(l)%uint64(c.sets)) * c.ways }

func (c *refCache) Lookup(l addrspace.Line) *Line {
	base := c.base(l)
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.State.Valid() && ln.Addr == l {
			return ln
		}
	}
	return nil
}

func (c *refCache) Touch(l addrspace.Line) *Line {
	ln := c.Lookup(l)
	if ln != nil {
		c.clock++
		ln.lru = c.clock
	}
	return ln
}

func (c *refCache) Victim(l addrspace.Line) (*Line, bool) {
	base := c.base(l)
	var oldest *Line
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if !ln.State.Valid() {
			return nil, true
		}
		if ln.NonEvict {
			continue
		}
		if oldest == nil || ln.lru < oldest.lru {
			oldest = ln
		}
	}
	if oldest == nil {
		return nil, false
	}
	return oldest, true
}

func (c *refCache) Install(l addrspace.Line, st State, words [addrspace.WordsPerLine]uint64) *Line {
	base := c.base(l)
	var slot *Line
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.State.Valid() && ln.Addr == l {
			c.clock++
			*ln = Line{Addr: l, State: st, Words: words, lru: c.clock}
			return ln
		}
	}
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if !ln.State.Valid() {
			slot = ln
			break
		}
	}
	if slot == nil {
		var oldest *Line
		for i := 0; i < c.ways; i++ {
			ln := &c.lines[base+i]
			if ln.NonEvict {
				continue
			}
			if oldest == nil || ln.lru < oldest.lru {
				oldest = ln
			}
		}
		if oldest == nil {
			panic("cache: install into fully pinned set")
		}
		slot = oldest
	}
	c.clock++
	*slot = Line{Addr: l, State: st, Words: words, lru: c.clock}
	return slot
}

func (c *refCache) Invalidate(l addrspace.Line) (Line, bool) {
	ln := c.Lookup(l)
	if ln == nil {
		return Line{}, false
	}
	old := *ln
	*ln = Line{}
	return old, true
}

func (c *refCache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			fn(&c.lines[i])
		}
	}
}

// arrayGeometry decodes the first two fuzz bytes into 1-16 sets of 1-4
// ways.
func arrayGeometry(a, b byte) Config {
	sets, ways := 1+int(a)%16, 1+int(b)%4
	return Config{SizeBytes: sets * ways * addrspace.LineSize, Ways: ways}
}

// FuzzCacheArray drives Cache and refCache with the same operations and
// requires the same answers after each one. Input: two geometry bytes
// (arrayGeometry), then up to 256 operations of three bytes (op, line,
// arg). Lines come from a universe of sets*(ways+2) addresses, so every
// set sees more lines than it has ways. op%8 selects Install (state
// arg%5, Invalid included), Touch, Lookup, Victim, Invalidate, setting
// or clearing NonEvict (arg&1), a word write, or a Dirty and
// UpdateCount write; the writes go through each cache's own *Line.
func FuzzCacheArray(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArray(t, data)
	})
}

// sameLine compares two lines field by field, the LRU stamp included.
func sameLine(a, b *Line) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

func checkArray(t *testing.T, data []byte) {
	var g [2]byte
	copy(g[:], data)
	runArray(t, arrayGeometry(g[0], g[1]), data[min(len(data), 2):])
}

// runArray runs FuzzCacheArray's operations (data, after the geometry
// bytes) on a Cache and a refCache of geometry cfg.
func runArray(t *testing.T, cfg Config, data []byte) {
	c, ref := New(cfg), newRef(cfg)
	universe := c.Sets() * (c.Ways() + 2)
	// held remembers the *Line Cache last returned for each line; while
	// the line stays resident, the pointer must still address it.
	held := map[addrspace.Line]*Line{}
	hold := func(l addrspace.Line, ln *Line) {
		if ln != nil {
			held[l] = ln
		}
	}
	for step := 0; len(data) >= 3 && step < 256; step, data = step+1, data[3:] {
		op, l, arg := data[0]%8, addrspace.Line(int(data[1])%universe), data[2]
		switch op {
		case 0:
			st := State(arg % 5)
			var words [addrspace.WordsPerLine]uint64
			words[arg%addrspace.WordsPerLine] = uint64(arg) + 1
			var got, want *Line
			pg := panics(func() { got = c.Install(l, st, words) })
			pw := panics(func() { want = ref.Install(l, st, words) })
			if pg != pw {
				t.Fatalf("step %d: Install(%d, %v) panic %v, reference %v", step, l, st, pg, pw)
			}
			if !pw && st.Valid() && !sameLine(got, want) {
				t.Fatalf("step %d: Install(%d, %v) = %+v, reference %+v", step, l, st, got, want)
			}
			if !pw && !st.Valid() && got != nil {
				t.Fatalf("step %d: Install(%d, Invalid) returned a line", step, l)
			}
			hold(l, got)
		case 1:
			got, want := c.Touch(l), ref.Touch(l)
			if !sameLine(got, want) {
				t.Fatalf("step %d: Touch(%d) = %+v, reference %+v", step, l, got, want)
			}
			hold(l, got)
		case 2:
			got, want := c.Lookup(l), ref.Lookup(l)
			if !sameLine(got, want) {
				t.Fatalf("step %d: Lookup(%d) = %+v, reference %+v", step, l, got, want)
			}
			hold(l, got)
		case 3:
			// Victim is compared after every step below.
		case 4:
			got, gok := c.Invalidate(l)
			want, wok := ref.Invalidate(l)
			if got != want || gok != wok {
				t.Fatalf("step %d: Invalidate(%d) = %+v %v, reference %+v %v", step, l, got, gok, want, wok)
			}
		default:
			got, want := c.Lookup(l), ref.Lookup(l)
			if got == nil || want == nil {
				break
			}
			for _, ln := range []*Line{got, want} {
				switch op {
				case 5:
					ln.NonEvict = arg&1 != 0
				case 6:
					ln.Words[arg%addrspace.WordsPerLine] ^= uint64(arg)<<8 | 1
				default:
					ln.Dirty = !ln.Dirty
					ln.UpdateCount += int(arg)
				}
			}
		}
		compareArrays(t, step, c, ref, universe, held)
	}
}

// compareArrays requires the same resident lines in the same ForEach
// order, the same CountValid and the same Victim answer for every line
// of the universe, and that every held pointer of a resident line still
// addresses it.
func compareArrays(t *testing.T, step int, c *Cache, ref *refCache, universe int, held map[addrspace.Line]*Line) {
	t.Helper()
	var got, want []Line
	c.ForEach(func(ln *Line) { got = append(got, *ln) })
	ref.ForEach(func(ln *Line) { want = append(want, *ln) })
	if len(got) != len(want) || c.CountValid() != len(want) {
		t.Fatalf("step %d: %d lines (CountValid %d), reference %d", step, len(got), c.CountValid(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: ForEach[%d] = %+v, reference %+v", step, i, got[i], want[i])
		}
	}
	for l := addrspace.Line(0); l < addrspace.Line(universe); l++ {
		gv, gok := c.Victim(l)
		wv, wok := ref.Victim(l)
		if gok != wok || !sameLine(gv, wv) {
			t.Fatalf("step %d: Victim(%d) = %+v %v, reference %+v %v", step, l, gv, gok, wv, wok)
		}
		if ln, ok := held[l]; ok {
			if ref.Lookup(l) == nil {
				delete(held, l)
			} else if ln != c.Lookup(l) || ln.Addr != l {
				t.Fatalf("step %d: held *Line of %d moved or holds %d", step, l, ln.Addr)
			}
		}
	}
}

// TestCacheArrayManyChunks runs FuzzCacheArray's checks on 32 sets of
// 4 ways, whose 128 lines span two storage chunks (the fuzz geometries
// fit in one), with operation streams that are half installs so the
// second chunk fills.
func TestCacheArrayManyChunks(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 4 * addrspace.LineSize, Ways: 4}
	for seed := uint32(1); seed <= 8; seed++ {
		data := make([]byte, 3*256)
		x := seed
		for i := range data {
			x = x*1664525 + 1013904223 // a 32-bit LCG
			data[i] = byte(x >> 24)
			if i%3 == 0 && x&(1<<16) != 0 {
				data[i] = 8 * byte(x>>8) // op%8 == 0: Install
			}
		}
		runArray(t, cfg, data)
	}
	c := New(cfg)
	for l := addrspace.Line(0); l < 128; l++ {
		c.Install(l, Shared, [addrspace.WordsPerLine]uint64{})
	}
	if len(c.chunks) != 2 || c.CountValid() != 128 {
		t.Fatalf("a full cache holds %d lines in %d chunks, want 128 in 2", c.CountValid(), len(c.chunks))
	}
}

// TestWayTableHoldsNoPointers pins the way table's element types as
// pointer-free, so a 64-core machine's 64 way tables are plain bytes
// the garbage collector never scans.
func TestWayTableHoldsNoPointers(t *testing.T) {
	c := New(Config{SizeBytes: 64 << 10, Ways: 2})
	for _, table := range []any{c.tags, c.idx} {
		if el := reflect.TypeOf(table).Elem(); hasPointers(el) {
			t.Errorf("way table element %v holds pointers", el)
		}
	}
}

// hasPointers reports whether a value of type t contains a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}
