package machine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coherence"
)

// Checker validates the protocol invariants of DESIGN.md §5.5 during a
// run: the single-writer/multiple-reader property, W-state consistency
// between directory and caches, and per-word value coherence (every
// load observes a serialized write, per-core observations of a word are
// version-monotonic, and a writer reads its own writes).
//
// The value checker records the full serialized write history per word,
// so it is intended for test-sized workloads.
type Checker struct {
	sys *System

	// history[word] is the serialized sequence of values written.
	history map[addrspace.Addr][]uint64
	// observed[coreWord] is the highest version the core has seen.
	observed map[coreWord]int

	err error
}

type coreWord struct {
	core int
	addr addrspace.Addr
}

// NewChecker attaches a checker to the system.
func NewChecker(sys *System) *Checker {
	return &Checker{
		sys:      sys,
		history:  make(map[addrspace.Addr][]uint64),
		observed: make(map[coreWord]int),
	}
}

// Err returns the first violation found by the value hooks, if any.
func (c *Checker) Err() error { return c.err }

// SerializedWrite records a write at its serialization point.
func (c *Checker) SerializedWrite(now uint64, a addrspace.Addr, v uint64) {
	c.history[a] = append(c.history[a], v)
}

// ObservedRead validates a load's value against the write history.
func (c *Checker) ObservedRead(now uint64, core int, a addrspace.Addr, v uint64) {
	if c.err != nil {
		return
	}
	h := c.history[a]
	key := coreWord{core, a}
	last := c.observed[key] // 0 = initial value (version 0 = pre-write zero)
	// Version numbering: version 0 is the initial (zero) value; version
	// i>0 is h[i-1]. Find the newest version with the observed value at
	// or after the core's last observation.
	for ver := len(h); ver >= last; ver-- {
		var val uint64
		if ver > 0 {
			val = h[ver-1]
		}
		if val == v {
			c.observed[key] = ver
			return
		}
	}
	c.err = fmt.Errorf("machine: value coherence violated at cycle %d: core %d read %#x=%d, not any version >= %d (history %v)",
		now, core, a, v, last, trim(h))
}

func trim(h []uint64) []uint64 {
	if len(h) > 16 {
		return h[len(h)-16:]
	}
	return h
}

// CheckStructural validates SWMR and the directory/cache agreement for
// every line currently tracked by any directory slice. It is safe to
// call mid-run: busy (transient) entries are skipped, since their
// caches and directory are mid-handshake by design.
func (c *Checker) CheckStructural() error {
	s := c.sys
	// Gather cache states per line.
	type holders struct {
		owners   []int // E or M
		shared   []int
		wireless []int
	}
	lines := make(map[addrspace.Line]*holders)
	for i, l1 := range s.l1s {
		l1.Cache().ForEach(func(ln *cache.Line) {
			h := lines[ln.Addr]
			if h == nil {
				h = &holders{}
				lines[ln.Addr] = h
			}
			switch ln.State {
			case cache.Exclusive, cache.Modified:
				h.owners = append(h.owners, i)
			case cache.Shared:
				h.shared = append(h.shared, i)
			case cache.Wireless:
				h.wireless = append(h.wireless, i)
			default:
				// ForEach visits valid lines only; Invalid never appears.
			}
		})
	}
	// Check lines in ascending order so that when several lines violate
	// an invariant at once, every run reports the same one first.
	sorted := make([]addrspace.Line, 0, len(lines))
	//lint:deterministic key collection feeds the sort below
	for line := range lines {
		sorted = append(sorted, line)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, line := range sorted {
		h := lines[line]
		if len(h.owners) > 1 {
			return fmt.Errorf("machine: SWMR violated: line %#x owned by cores %v", line, h.owners)
		}
		if len(h.owners) == 1 && (len(h.shared) > 0 || len(h.wireless) > 0) {
			return fmt.Errorf("machine: SWMR violated: line %#x owned by %d with copies S=%v W=%v",
				line, h.owners[0], h.shared, h.wireless)
		}
		if len(h.wireless) > 0 && len(h.shared) > 0 {
			// Transient during S->W/W->S handshakes; only flag when the
			// home is stable.
			home := s.homes[s.HomeOf(line)]
			if e := home.Entry(line); e != nil && !e.Busy() {
				return fmt.Errorf("machine: line %#x mixes W=%v and S=%v copies while home is stable (%v)",
					line, h.wireless, h.shared, e.State)
			}
		}
	}
	// Directory agreement.
	for _, home := range s.homes {
		var err error
		home.ForEachEntry(func(e *coherence.DirEntry) {
			if err != nil || e.Busy() {
				return
			}
			h := lines[e.Line]
			if h == nil {
				h = &holders{}
			}
			switch e.State {
			case coherence.DirOwned:
				// Two benign transients: the grant is still in flight
				// to the owner (it has a pending request), or the owner
				// just evicted (line in its victim buffer until PutAck).
				if s.l1s[e.Owner].PendingLine(e.Line) {
					return
				}
				if s.l1s[e.Owner].VictimHolds(e.Line) {
					if len(h.owners) != 0 {
						err = fmt.Errorf("machine: line %#x in victim buffer of owner %d but also cached by %v",
							e.Line, e.Owner, h.owners)
					}
					return
				}
				if len(h.owners) != 1 || h.owners[0] != e.Owner {
					err = fmt.Errorf("machine: dir %v owner=%d but caches hold owners=%v (line %#x)",
						e.State, e.Owner, h.owners, e.Line)
				}
			case coherence.DirInvalid:
				// Put notifications may still be in flight; a cache may
				// transiently hold a line the directory thinks is idle
				// only if its eviction notice is travelling. We cannot
				// distinguish that cheaply, so only owners are checked:
				// an owner with a DirInvalid entry and no in-flight
				// transaction is a real bug, but owners always notify,
				// so flag any owner at all only when the mesh is idle.
				if len(h.owners)+len(h.wireless) > 0 && s.mesh.Pending() == 0 && s.wchan.Idle() {
					err = fmt.Errorf("machine: dir DI but caches hold line %#x (owners=%v wireless=%v)",
						e.Line, h.owners, h.wireless)
				}
			case coherence.DirWireless:
				if len(h.owners) > 0 {
					err = fmt.Errorf("machine: dir DW but line %#x has owner %v", e.Line, h.owners)
				}
				if s.mesh.Pending() == 0 && s.wchan.Idle() && len(h.wireless) != e.SharerCount {
					err = fmt.Errorf("machine: dir DW SharerCount=%d but %d caches hold line %#x in W (quiescent)",
						e.SharerCount, len(h.wireless), e.Line)
				}
			case coherence.DirShared:
				if len(h.owners) > 0 {
					err = fmt.Errorf("machine: dir DS but line %#x has owner %v", e.Line, h.owners)
				}
				if !e.Broadcast && s.mesh.Pending() == 0 && s.wchan.Idle() {
					// Pointers must be a superset of actual S holders.
					for _, sh := range h.shared {
						if !slices.Contains(e.Sharers, sh) {
							err = fmt.Errorf("machine: dir DS pointers %v miss sharer %d of line %#x (quiescent)",
								e.Sharers, sh, e.Line)
							return
						}
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
