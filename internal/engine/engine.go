// Package engine provides the simulator's event queue: a deterministic
// (cycle, sequence) ordered collection of callbacks. Components use it
// for anything that happens "later" — cache access latencies, memory
// controller service times, request retry timers. The queue is a thin
// layer over Wheel, the generic timing wheel that also orders the wired
// mesh's in-flight packets.
package engine

// Runner is a scheduled callback. Callers that fire the same kind of
// event repeatedly implement Run on a recycled struct, so scheduling
// allocates nothing: an interface holding a pointer does not
// escape-allocate the way a fresh closure does.
type Runner interface {
	Run(now uint64)
}

// Queue is the event queue: a Wheel of Runners. The zero value is
// ready to use. Execution order is exactly (cycle, seq) — see Wheel
// for the layout and the ordering argument.
type Queue struct {
	w Wheel[Runner]
}

// At schedules r.Run at the given cycle. Events scheduled for the same
// cycle run in scheduling order.
func (q *Queue) At(cycle uint64, r Runner) { q.w.Push(cycle, r) }

// RunDue runs every event with at <= now, in (cycle, seq) order. Events
// scheduled during execution for cycles <= now also run; a late event
// (scheduled for a cycle already drained) runs in the next drained
// cycle. It returns the number of events executed so the driving loop
// can tell a quiescent cycle from a busy one.
func (q *Queue) RunDue(now uint64) int {
	ran := 0
	for {
		r, ok := q.w.PopDue(now)
		if !ok {
			return ran
		}
		r.Run(now)
		ran++
	}
}

// Next returns the cycle of the earliest pending event.
func (q *Queue) Next() (uint64, bool) { return q.w.Next() }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.w.Len() }
