package analysis

import "testing"

func TestGlobalMutUnregistered(t *testing.T) {
	p := fixture(t, "repro/internal/wireless", `package wireless

var retries int

var _ interface{} = retries // blank assertions are ignored

func bump() { retries++ }
`)
	want(t, GlobalMut.Run(p), map[int][]string{
		3: {"globalmut"},
	})
}

func TestGlobalMutJustified(t *testing.T) {
	// The generic escape hatch suppresses globalmut like any other rule,
	// on the declaration line or the line above, and a justification
	// that suppresses nothing is reported stale.
	p := fixture(t, "repro/internal/wireless", `package wireless

//lint:deterministic scratch cleared per cycle
var scratch []int

var onLine int //lint:deterministic also accepted on the declaration line

//lint:deterministic nothing below to justify
func f() {}
`)
	want(t, RunAll(p), map[int][]string{
		8: {"staleignore"},
	})
}

func TestGlobalMutScope(t *testing.T) {
	// The experiment layer sits outside the globalmut contract.
	p := fixture(t, "repro/internal/exp", `package exp

var pool []byte
`)
	want(t, GlobalMut.Run(p), map[int][]string{})
	// xrand is in scope even though it is not a deterministic package.
	p = fixture(t, "repro/internal/xrand", `package xrand

var defaultSeed uint64
`)
	want(t, GlobalMut.Run(p), map[int][]string{
		3: {"globalmut"},
	})
}
