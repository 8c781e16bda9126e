package engine

import "math/bits"

// The timing wheel covers wheelSize cycles from its current floor.
// Nearly every item the simulator schedules is a small fixed latency
// ahead (L1 hits, LLC banks, link hops, memory service), so almost all
// traffic takes the O(1) wheel path; only long timers (NACK retry
// backoff, watchdog sweeps) and deep link backlogs fall through to the
// far heap.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// Wheel is a deterministic (cycle, seq) ordered collection of items of
// type T: the ordering structure shared by the event queue (Queue) and
// the wired mesh's in-flight packets. The zero value is ready to use.
//
// Layout: items within wheelSize cycles of the floor sit in per-cycle
// FIFO slots, each a singly linked list threaded through one node pool
// by int32 index; a 256-bit occupancy bitmap finds the earliest
// non-empty slot with a few TrailingZeros64 calls. Items further ahead
// go to a min-heap ordered by (at, seq). Items are stored by value and
// freed nodes are recycled through a free list, so a warmed-up wheel
// allocates nothing.
//
// Pop order is exactly (cycle, seq), where a late item (at below the
// floor when pushed) counts as due at the floor:
//
//   - within one slot, list order is push order, which is seq order;
//   - for one cycle, every far-heap item precedes every slot item,
//     because an item lands in the heap only while its cycle is at
//     least wheelSize away and in a slot only once it is closer — and
//     the floor only moves forward, so all heap placements for a cycle
//     happen (seq-wise) before all slot placements.
type Wheel[T any] struct {
	nodes  []node[T] // node pool; index 0 is the nil link
	free   int32     // head of the free-node list
	head   [wheelSize]int32
	tail   [wheelSize]int32
	occ    [occWords]uint64 // bit s set iff slot s is non-empty
	wcount int              // items resident in slots
	cur    uint64           // floor: every cycle < cur has been drained
	far    []farItem[T]     // min-heap of items >= cur+wheelSize at push time
	seq    uint64
}

type node[T any] struct {
	item T
	next int32
}

type farItem[T any] struct {
	at, seq uint64
	item    T
}

// Push schedules item for cycle at. Items pushed for the same cycle
// pop in push order.
func (w *Wheel[T]) Push(at uint64, item T) {
	w.seq++
	c := max(at, w.cur) // a late item pops at the floor
	if c-w.cur >= wheelSize {
		w.far = append(w.far, farItem[T]{at: at, seq: w.seq, item: item})
		w.siftUp(len(w.far) - 1)
		return
	}
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n].next = 0
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, node[T]{}) // reserve the nil link
		}
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, node[T]{})
	}
	// Field-wise rather than a node literal: the literal is built on the
	// stack and copied, which costs Mesh.Send measurably.
	w.nodes[n].item = item
	s := c & wheelMask
	if w.head[s] == 0 {
		w.head[s] = n
		w.occ[s>>6] |= 1 << (s & 63)
	} else {
		w.nodes[w.tail[s]].next = n
	}
	w.tail[s] = n
	w.wcount++
}

// PopDue removes and returns the earliest item due at or before now,
// in (cycle, seq) order. Items pushed between calls — including ones
// for cycles already being drained — are seen by the next call. The
// floor becomes the cycle of the item returned, or now when nothing is
// due and PopDue returns false. now must not decrease from one call to
// the next.
func (w *Wheel[T]) PopDue(now uint64) (T, bool) {
	var zero T
	if w.wcount == 0 && len(w.far) == 0 {
		// The common idle case, checked without calling Next.
		w.cur = max(w.cur, now)
		return zero, false
	}
	for w.cur <= now {
		if len(w.far) > 0 && w.far[0].at <= w.cur {
			return w.popFar(), true
		}
		s := w.cur & wheelMask
		if n := w.head[s]; n != 0 {
			nd := &w.nodes[n]
			item := nd.item
			w.head[s] = nd.next
			if nd.next == 0 {
				w.occ[s>>6] &^= 1 << (s & 63)
			}
			*nd = node[T]{next: w.free} // drop the item reference for the GC
			w.free = n
			w.wcount--
			return item, true
		}
		// The floor slot is empty and no far item is due on it: jump
		// to the earliest pending cycle, or to now if that is later.
		at, ok := w.Next()
		if !ok || at > now {
			w.cur = now
			break
		}
		w.cur = at
	}
	return zero, false
}

// Next returns the cycle of the earliest pending item.
func (w *Wheel[T]) Next() (uint64, bool) {
	at, ok := uint64(0), false
	if w.wcount > 0 {
		at, ok = w.cur+w.firstSlotDistance(), true
	}
	if len(w.far) > 0 && (!ok || w.far[0].at < at) {
		at, ok = w.far[0].at, true
	}
	return at, ok
}

// firstSlotDistance returns how many cycles past the floor the first
// non-empty slot lies. The wheel must hold at least one slot item.
func (w *Wheel[T]) firstSlotDistance() uint64 {
	s := w.cur & wheelMask
	i := s >> 6
	// Bits at or above the floor's position in its own word first,
	// then the following words, wrapping round to the low bits of the
	// floor's word last.
	if m := w.occ[i] &^ (1<<(s&63) - 1); m != 0 {
		return i<<6 + uint64(bits.TrailingZeros64(m)) - s
	}
	for k := uint64(1); k <= occWords; k++ {
		j := (i + k) % occWords
		if m := w.occ[j]; m != 0 {
			return (j<<6 + uint64(bits.TrailingZeros64(m)) - s) & wheelMask
		}
	}
	panic("engine: wheel count and occupancy bitmap disagree")
}

// Len returns the number of pending items.
func (w *Wheel[T]) Len() int { return w.wcount + len(w.far) }

// popFar removes and returns the minimum far item, keeping the backing
// array.
func (w *Wheel[T]) popFar() T {
	item := w.far[0].item
	n := len(w.far) - 1
	w.far[0] = w.far[n]
	w.far[n] = farItem[T]{}
	w.far = w.far[:n]
	if n > 0 {
		w.siftDown(0)
	}
	return item
}

// The far heap is maintained by hand on a plain slice rather than
// through container/heap: the interface-based API would box every item
// on Push.

func (w *Wheel[T]) less(i, j int) bool {
	if w.far[i].at != w.far[j].at {
		return w.far[i].at < w.far[j].at
	}
	return w.far[i].seq < w.far[j].seq
}

func (w *Wheel[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(i, parent) {
			return
		}
		w.far[i], w.far[parent] = w.far[parent], w.far[i]
		i = parent
	}
}

func (w *Wheel[T]) siftDown(i int) {
	n := len(w.far)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && w.less(right, left) {
			min = right
		}
		if !w.less(min, i) {
			return
		}
		w.far[i], w.far[min] = w.far[min], w.far[i]
		i = min
	}
}
