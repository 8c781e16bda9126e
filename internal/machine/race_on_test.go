//go:build race

package machine

// raceEnabled reports whether the race detector instruments this
// build; the allocation tests skip under it because the race
// runtime's own bookkeeping allocates nondeterministically.
const raceEnabled = true
