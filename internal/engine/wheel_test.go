package engine

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// refItem is one pending item of the reference model: a plain list
// searched for the minimum (due, seq), where due is the push cycle
// raised to the floor. The wheel under test holds each item's seq.
type refItem struct {
	due, seq uint64
	far      bool // pushed at least a wheel ahead of the floor
}

// wheelCoverage counts the situations a FuzzWheel input reached.
type wheelCoverage struct {
	far, late, drainPush, jump int
	shared                     int // a near push onto a cycle a far item holds
}

// runWheelOps decodes ops as (opcode, argument) byte pairs, applies
// them to a Wheel and to the reference list, and fails on the first
// divergence in PopDue order, Next or Len.
//
// The floor is the cycle being drained: the cycle of the last item
// popped, or now once PopDue finds nothing due. now never decreases.
func runWheelOps(t *testing.T, ops []byte) wheelCoverage {
	var (
		w          Wheel[uint64]
		ref        []refItem
		cov        wheelCoverage
		now, floor uint64
		seq        uint64
		draining   bool // the last PopDue returned an item
	)
	push := func(at uint64) {
		seq++
		due := max(at, floor)
		if at < floor {
			cov.late++
		}
		far := due-floor >= wheelSize
		if far {
			cov.far++
		} else {
			for _, it := range ref {
				if it.far && it.due == due {
					cov.shared++
					break
				}
			}
		}
		if draining && due == floor {
			cov.drainPush++
		}
		w.Push(at, seq)
		ref = append(ref, refItem{due: due, seq: seq, far: far})
	}
	refMin := func() int {
		best := -1
		for i, it := range ref {
			if best < 0 || it.due < ref[best].due || it.due == ref[best].due && it.seq < ref[best].seq {
				best = i
			}
		}
		return best
	}
	pop := func() bool {
		got, ok := w.PopDue(now)
		best := refMin()
		if best < 0 || ref[best].due > now {
			if ok {
				t.Fatalf("now %d: PopDue returned %d, reference has nothing due", now, got)
			}
			floor, draining = now, false
			return false
		}
		want := ref[best]
		if !ok || got != want.seq {
			t.Fatalf("now %d: PopDue = %d,%v, want item %d due at %d", now, got, ok, want.seq, want.due)
		}
		ref = append(ref[:best], ref[best+1:]...)
		if want.due > floor+1 {
			cov.jump++ // skipped at least one empty cycle
		}
		floor, draining = want.due, true
		return true
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		arg := uint64(ops[1])
		switch ops[0] % 7 {
		case 0: // near: within the wheel of now
			push(now + arg)
		case 1: // straddling the wheel's edge: now+240 .. now+750
			push(now + wheelSize - 16 + 2*arg)
		case 2: // late: below the floor
			push(floor - min(arg, floor))
		case 3:
			pop()
		case 4:
			now += arg
		case 5: // a long stretch, usually empty
			now += arg << 8
		case 6:
			for pop() {
			}
		}
		best := refMin()
		at, ok := w.Next()
		if ok != (best >= 0) || ok && at != ref[best].due {
			t.Fatalf("Next = %d,%v, want %+v (best %d)", at, ok, ref, best)
		}
		if w.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", w.Len(), len(ref))
		}
	}
	return cov
}

func FuzzWheel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 512 operations reach every wheel slot and the far heap; longer
		// inputs only slow the fuzzer's minimizer down.
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runWheelOps(t, ops)
	})
}

// TestWheelCorpusCoverage checks that the checked-in FuzzWheel seed
// corpus reaches every case the differential test is for: far items,
// near items sharing a cycle with a far one, late items, pushes onto
// the cycle being drained, and jumps over empty stretches.
func TestWheelCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWheel", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzWheel seed corpus: %v", err)
	}
	var total wheelCoverage
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value fuzz corpus file", name)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		ops, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := runWheelOps(t, []byte(ops))
		total.far += c.far
		total.late += c.late
		total.drainPush += c.drainPush
		total.jump += c.jump
		total.shared += c.shared
	}
	t.Logf("seed corpus coverage: %+v", total)
	if total.far == 0 || total.late == 0 || total.drainPush == 0 || total.jump == 0 || total.shared == 0 {
		t.Fatalf("seed corpus misses a case: %+v", total)
	}
}
