package coherence

import (
	"fmt"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/xrand"
)

// scanOldestBusy is the full scan oldestBusy replaced: the busy entry
// with the least (started, line) among all of h's entries.
func scanOldestBusy(h *HomeCtrl) *DirEntry {
	var best *DirEntry
	h.entries.forEach(func(_ addrspace.Line, e *DirEntry) bool {
		if e.Busy() && (best == nil || e.busy.started < best.busy.started ||
			(e.busy.started == best.busy.started && e.Line < best.Line)) {
			best = e
		}
		return true
	})
	return best
}

// TestOldestBusyMatchesScan runs contended random traffic on the mock
// machine with jittered wired delivery (per-pair FIFO kept) and small
// directories, so transactions overlap, start in the same cycle and
// evict entries, and requires each home's oldestBusy, and so the
// watchdog's OldestTxn, to equal the full scan at every check: every
// cycle for one seed, every 37 cycles (stale references pile up
// between checks) for the others.
func TestOldestBusyMatchesScan(t *testing.T) {
	var ties, busyChecks int
	for seed := uint64(1); seed <= 4; seed++ {
		checkEvery := uint64(37)
		if seed == 1 {
			checkEvery = 1
		}
		e := newMockEnv(8)
		for _, h := range e.homes {
			h.cfg.Entries = 4
		}
		rng := xrand.New(seed)
		type held struct {
			at uint64
			wm wiredMsg
		}
		var queue []held
		last := map[[3]int]uint64{}
		idle := make([]bool, len(e.l1s))
		for i := range idle {
			idle[i] = true
		}
		for cycle := 0; cycle < 4000 || len(queue) > 0 || len(e.wired) > 0; cycle++ {
			if cycle > 100_000 {
				t.Fatalf("seed %d: the mock machine did not drain", seed)
			}
			e.now++
			for _, wm := range e.wired {
				k := [3]int{wm.m.Src, wm.dst, int(wm.port)}
				delay := uint64(rng.Intn(6))
				if rng.Bool(0.05) {
					delay += 60 // a slow message keeps a transaction open
				}
				at := max(e.now+delay, last[k])
				last[k] = at
				queue = append(queue, held{at, wm})
			}
			e.wired = e.wired[:0]
			rest := queue[:0]
			var due []wiredMsg
			for _, q := range queue {
				if q.at <= e.now {
					due = append(due, q.wm)
				} else {
					rest = append(rest, q)
				}
			}
			queue = rest
			for _, wm := range due {
				e.deliver(wm)
			}
			e.wchan.Tick(e.now)
			e.events.RunDue(e.now)
			for i, l1 := range e.l1s {
				if cycle >= 4000 || !idle[i] || !rng.Bool(0.5) {
					continue
				}
				idle[i] = false
				// Half the accesses go to eight lines of home 0, so its
				// transactions overlap and it evicts.
				line := addrspace.Line(rng.Intn(48))
				if rng.Bool(0.5) {
					line = addrspace.Line(8 * rng.Intn(8))
				}
				r := &MemRequest{Addr: line.Base(),
					Done: func(*MemRequest, uint64, uint64) { idle[i] = true }}
				switch k := rng.Intn(10); {
				case k < 3:
					r.IsWrite, r.Value = true, rng.Uint64()
				case k < 5:
					r.IsRMW, r.RMW, r.Value = true, RMWFetchAdd, 1
				}
				l1.Access(r)
			}
			if e.protoErr != nil {
				t.Fatalf("seed %d: %v", seed, e.protoErr)
			}
			if e.now%checkEvery != 0 {
				continue
			}
			for _, h := range e.homes {
				got, want := h.oldestBusy(), scanOldestBusy(h)
				if got != want {
					t.Fatalf("seed %d cycle %d home %d: oldestBusy = %s, full scan %s",
						seed, e.now, h.id, describeBusy(got), describeBusy(want))
				}
				if want == nil {
					continue
				}
				busyChecks++
				h.entries.forEach(func(_ addrspace.Line, d *DirEntry) bool {
					if d != want && d.Busy() && d.busy.started == want.busy.started {
						ties++
						return false
					}
					return true
				})
			}
		}
	}
	t.Logf("%d busy checks, %d ties", busyChecks, ties)
	if busyChecks == 0 || ties == 0 {
		t.Fatalf("%d checks found a busy entry and %d a tie on the start cycle; want both", busyChecks, ties)
	}
}

// describeBusy renders an entry's line and transaction start.
func describeBusy(e *DirEntry) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprintf("line=%#x started=%d", e.Line, e.busy.started)
}
