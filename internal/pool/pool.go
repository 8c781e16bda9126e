// Package pool holds the free list the simulator's controllers, machine,
// channel and cache recycle their per-event records through, so that a
// warm run allocates nothing (DESIGN.md §14).
package pool

// Free is a LIFO free list of records of type T. The zero value is an
// empty list. It is a plain slice so that it costs one slice header in
// the struct that owns it and its methods inline at the call sites.
// A record taken from the list keeps whatever its last user left in
// it; the caller overwrites the fields it uses.
type Free[T any] []*T

// Pop returns the most recently freed record, or nil when the list is
// empty.
func (f *Free[T]) Pop() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	p := (*f)[n-1]
	*f = (*f)[:n-1]
	return p
}

// Get returns the most recently freed record, or a new zero record when
// the list is empty.
func (f *Free[T]) Get() *T {
	if p := f.Pop(); p != nil {
		return p
	}
	return new(T)
}

// Put returns p to the list.
func (f *Free[T]) Put(p *T) { *f = append(*f, p) }
