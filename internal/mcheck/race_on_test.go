//go:build race

package mcheck

// raceEnabled reports whether the race detector instruments this
// build; the allocation budget skips under it because the race
// runtime's own bookkeeping allocates nondeterministically.
const raceEnabled = true
