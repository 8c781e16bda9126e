package engine

import "testing"

// fn adapts a test closure to Runner.
type fn func(now uint64)

func (f fn) Run(now uint64) { f(now) }

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(5, fn(func(uint64) { got = append(got, 5) }))
	q.At(3, fn(func(uint64) { got = append(got, 3) }))
	q.At(4, fn(func(uint64) { got = append(got, 4) }))
	q.RunDue(10)
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("order = %v", got)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(7, fn(func(uint64) { got = append(got, i) }))
	}
	q.RunDue(7)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", got)
		}
	}
}

func TestRunDueBoundary(t *testing.T) {
	var q Queue
	ran := false
	q.At(5, fn(func(uint64) { ran = true }))
	q.RunDue(4)
	if ran {
		t.Fatal("future event ran early")
	}
	q.RunDue(5)
	if !ran {
		t.Fatal("due event did not run")
	}
}

func TestScheduleDuringRun(t *testing.T) {
	var q Queue
	var got []string
	q.At(1, fn(func(now uint64) {
		got = append(got, "a")
		q.At(now, fn(func(uint64) { got = append(got, "b") })) // same cycle
		q.At(now+5, fn(func(uint64) { got = append(got, "c") }))
	}))
	q.RunDue(1)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("nested same-cycle scheduling: %v", got)
	}
	q.RunDue(6)
	if len(got) != 3 || got[2] != "c" {
		t.Fatalf("future nested event: %v", got)
	}
}

func TestNextAndLen(t *testing.T) {
	var q Queue
	if _, ok := q.Next(); ok {
		t.Fatal("empty queue reported an event")
	}
	q.At(9, fn(func(uint64) {}))
	q.At(4, fn(func(uint64) {}))
	if at, ok := q.Next(); !ok || at != 4 {
		t.Fatalf("Next = %d,%v", at, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.RunDue(100)
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestNowArgument(t *testing.T) {
	var q Queue
	var at uint64
	q.At(3, fn(func(now uint64) { at = now }))
	q.RunDue(8) // runs late, but receives the caller's now
	if at != 8 {
		t.Fatalf("now = %d", at)
	}
}
