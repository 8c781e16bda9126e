// Package cache implements the set-associative cache array used for the
// private L1s and the shared LLC slices. The array tracks, per line, the
// coherence state, per-word data values (used by the correctness
// checkers), a dirty bit, WiDir's UpdateCount, and true-LRU replacement
// order.
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

// Line is one resident cache line.
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

// Cache is a set-associative array with true-LRU replacement. It is a
// passive structure: the coherence controllers decide what to do on
// misses and evictions; Cache only stores lines and picks victims.
type Cache struct {
	sets  int
	ways  int
	mask  uint64 // sets-1 when sets is a power of two, else 0
	lines []Line // sets*ways, set-major
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
		lines: make([]Line, sets*cfg.Ways),
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

// Lookup returns the resident line or nil. It does not update LRU; use
// Touch for an access.
func (c *Cache) Lookup(l addrspace.Line) *Line {
	base := c.setIndex(l) * c.ways
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.State.Valid() && ln.Addr == l {
			return ln
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

// Victim returns the line that would be evicted to make room for l: nil
// if the set has a free way. Lines marked NonEvict are skipped; if every
// way is pinned, Victim returns nil and ok=false, meaning the install
// must be retried later (RMW windows are a few cycles, so this resolves
// quickly).
func (c *Cache) Victim(l addrspace.Line) (victim *Line, ok bool) {
	base := c.setIndex(l) * c.ways
	var oldest *Line
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if !ln.State.Valid() {
			return nil, true // free way available
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

// Install places a line into the cache, returning the slot. If the line
// is already resident its slot is reused in place (state and data are
// overwritten). Otherwise the caller must have already handled the
// victim returned by Victim (the slot reused is the same line Victim
// reported, or a free way). Install panics if the set is fully pinned;
// callers must check Victim first.
func (c *Cache) Install(l addrspace.Line, st State, words [addrspace.WordsPerLine]uint64) *Line {
	base := c.setIndex(l) * c.ways
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

// Invalidate drops the line if resident, returning its former contents
// by value for writeback decisions (ok=false if absent). Returning the
// copy rather than a pointer keeps the per-invalidation cost a stack
// copy: a returned pointer would force the snapshot onto the heap, and
// invalidations run on the coherence hot path.
func (c *Cache) Invalidate(l addrspace.Line) (old Line, ok bool) {
	ln := c.Lookup(l)
	if ln == nil {
		return Line{}, false
	}
	old = *ln
	*ln = Line{}
	return old, true
}

// ForEach calls fn for every valid resident line. Iteration order is
// set-major and deterministic.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			fn(&c.lines[i])
		}
	}
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			n++
		}
	}
	return n
}
