// Package cache implements the set-associative array of the private
// L1s. The array tracks, per line, the coherence state, per-word data
// values (used by the correctness checkers), a dirty bit, WiDir's
// UpdateCount, and true-LRU replacement order. Line storage grows with
// the lines a run installs: a way table of tags sized to the geometry
// points into chunks of lines allocated on demand (DESIGN.md §14).
package cache

import (
	"fmt"

	"repro/internal/addrspace"
)

// State is a cache-line coherence state as seen by the holding cache.
type State uint8

// Cache line states. W is WiDir's Wireless Shared state.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Wireless
)

// String returns the one-letter MESI/W name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Wireless:
		return "W"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds readable data.
func (s State) Valid() bool { return s != Invalid }

// Line is one resident cache line. A *Line returned by Lookup, Touch,
// Victim or Install stays valid until that line is invalidated or
// replaced; after that its storage may hold another line. Callers
// change State only through Install and Invalidate, and never write
// Addr.
type Line struct {
	Addr        addrspace.Line
	State       State
	Dirty       bool
	UpdateCount int  // WiDir: wireless updates since last local access
	NonEvict    bool // pinned during an RMW window (§IV-C)
	Words       [addrspace.WordsPerLine]uint64

	lru uint64 // last-touch stamp for replacement
}

// Config sizes a cache array.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// Validate reports a geometry New cannot build: the capacity must hold
// at least one line and a whole number of sets of Ways lines each.
func (c Config) Validate() error {
	lines := c.SizeBytes / addrspace.LineSize
	if c.Ways <= 0 || lines <= 0 || lines%c.Ways != 0 {
		return fmt.Errorf("cache: invalid config %+v", c)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration. It
// panics on a configuration Validate rejects.
func (c Config) Sets() int {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	return c.SizeBytes / addrspace.LineSize / c.Ways
}

// lineChunk is the number of Lines one storage chunk holds. Chunks are
// never resized or moved, which is what keeps a *Line valid.
const lineChunk = 64

// noLine is the tag of an empty way. No line address LineOf returns
// reaches it, and Install refuses it.
const noLine = ^addrspace.Line(0)

// way is one slot of the way table: the resident line's address and
// its storage, or noLine and nil when the way is empty.
type way struct {
	tag addrspace.Line
	ln  *Line
}

// Cache is a set-associative array with true-LRU replacement. It is a
// passive structure: the coherence controllers decide what to do on
// misses and evictions; Cache only stores lines and picks victims.
//
// The way table holds sets*ways tags, set-major, 16 bytes each. Line
// storage comes from chunks of lineChunk lines, allocated only when
// every line handed out so far is resident, so storage follows the most
// lines ever resident at once, rounded up to a chunk. An invalidated or
// emptied line goes on a free list and the next install reuses it.
type Cache struct {
	sets  int
	ways  int
	mask  uint64 // sets-1 when sets is a power of two, else 0
	table []way  // sets*ways, set-major
	chunk []Line // the chunk new lines are cut from
	free  []*Line
	clock uint64 // LRU stamp source

	// Stats maintained by callers via Touch/Install; exposed for
	// convenience because every controller needs them.
	Hits   uint64
	Misses uint64
}

// New builds an empty cache from the configuration.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		sets:  sets,
		ways:  cfg.Ways,
		table: make([]way, sets*cfg.Ways),
	}
	for i := range c.table {
		c.table[i].tag = noLine
	}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets) - 1
	}
	return c
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setIndex maps a line to its set. Every shipped geometry has a
// power-of-two set count, which takes the mask; other geometries that
// Validate accepts take the division. A one-set cache has mask 0 and
// so takes the division too, which is also 0.
func (c *Cache) setIndex(l addrspace.Line) int {
	if c.mask != 0 {
		return int(uint64(l) & c.mask)
	}
	return int(uint64(l) % uint64(c.sets))
}

// set returns the ways of the set l maps to.
func (c *Cache) set(l addrspace.Line) []way {
	base := c.setIndex(l) * c.ways
	return c.table[base : base+c.ways]
}

// Lookup returns the resident line or nil. It does not update LRU; use
// Touch for an access.
func (c *Cache) Lookup(l addrspace.Line) *Line {
	set := c.set(l)
	for i := range set {
		if set[i].tag == l {
			return set[i].ln
		}
	}
	return nil
}

// Touch looks up the line and, if present, marks it most recently used.
func (c *Cache) Touch(l addrspace.Line) *Line {
	ln := c.Lookup(l)
	if ln != nil {
		c.clock++
		ln.lru = c.clock
	}
	return ln
}

// lruWay returns the least recently used way of a full set that is not
// pinned NonEvict, or nil if every way is pinned.
func lruWay(set []way) *way {
	var oldest *way
	for i := range set {
		if set[i].ln.NonEvict {
			continue
		}
		if oldest == nil || set[i].ln.lru < oldest.ln.lru {
			oldest = &set[i]
		}
	}
	return oldest
}

// freeWay returns the first empty way of the set, or nil.
func freeWay(set []way) *way {
	for i := range set {
		if set[i].ln == nil {
			return &set[i]
		}
	}
	return nil
}

// Victim returns the line that would be evicted to make room for l: nil
// if the set has a free way. Lines marked NonEvict are skipped; if every
// way is pinned, Victim returns nil and ok=false, meaning the install
// must be retried later (RMW windows are a few cycles, so this resolves
// quickly).
func (c *Cache) Victim(l addrspace.Line) (victim *Line, ok bool) {
	set := c.set(l)
	if freeWay(set) != nil {
		return nil, true
	}
	w := lruWay(set)
	if w == nil {
		return nil, false
	}
	return w.ln, true
}

// Install places a line into the cache, returning the slot. If the line
// is already resident its slot is reused in place (state and data are
// overwritten). Otherwise the caller must have already handled the
// victim returned by Victim (the way reused is the one holding the line
// Victim reported, or a free way). Installing the Invalid state empties
// the way and returns nil. Install panics if the set is fully pinned;
// callers must check Victim first.
func (c *Cache) Install(l addrspace.Line, st State, words [addrspace.WordsPerLine]uint64) *Line {
	if l == noLine {
		panic("cache: install of the reserved no-line address")
	}
	set := c.set(l)
	var w *way
	for i := range set {
		if set[i].tag == l {
			w = &set[i]
			break
		}
	}
	if w == nil {
		if w = freeWay(set); w == nil {
			if w = lruWay(set); w == nil {
				panic("cache: install into fully pinned set")
			}
			c.release(w)
		}
	}
	c.clock++
	if !st.Valid() {
		if w.ln != nil {
			c.release(w)
		}
		return nil
	}
	if w.ln == nil {
		w.tag, w.ln = l, c.alloc()
	}
	*w.ln = Line{Addr: l, State: st, Words: words, lru: c.clock}
	return w.ln
}

// alloc returns storage for a new line: the most recently freed line,
// or the next line of the current chunk, starting a chunk when it is
// used up. A cache with fewer ways than lineChunk gets a chunk of its
// own size, which is all it ever needs.
func (c *Cache) alloc() *Line {
	if n := len(c.free); n > 0 {
		ln := c.free[n-1]
		c.free = c.free[:n-1]
		return ln
	}
	if len(c.chunk) == cap(c.chunk) {
		c.chunk = make([]Line, 0, min(lineChunk, len(c.table)))
	}
	c.chunk = c.chunk[:len(c.chunk)+1]
	return &c.chunk[len(c.chunk)-1]
}

// release empties a way and puts its line on the free list. The line
// keeps its stale contents until Install overwrites all of it.
func (c *Cache) release(w *way) {
	c.free = append(c.free, w.ln)
	w.tag, w.ln = noLine, nil
}

// Invalidate drops the line if resident, returning its former contents
// by value for writeback decisions (ok=false if absent). Returning the
// copy rather than a pointer keeps the per-invalidation cost a stack
// copy: a returned pointer would force the snapshot onto the heap, and
// invalidations run on the coherence hot path.
func (c *Cache) Invalidate(l addrspace.Line) (old Line, ok bool) {
	set := c.set(l)
	for i := range set {
		if w := &set[i]; w.tag == l && w.ln != nil {
			old = *w.ln
			c.release(w)
			return old, true
		}
	}
	return Line{}, false
}

// ForEach calls fn for every valid resident line. Iteration order is
// set-major and deterministic.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.table {
		if ln := c.table[i].ln; ln != nil {
			fn(ln)
		}
	}
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.table {
		if c.table[i].ln != nil {
			n++
		}
	}
	return n
}
