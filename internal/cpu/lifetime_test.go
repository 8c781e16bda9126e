package cpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/coherence"
)

// holdingPort is a MemPort that holds every request it receives and
// completes one every period cycles, the youngest first, so loads
// complete out of order and the load queue fills. Access fails the
// test if it receives a request that is still outstanding: the core
// must not reuse a request before its Done has fired. Loads read
// loadValue; RMWs act on their own memory, which nothing else touches.
type holdingPort struct {
	t      testing.TB
	now    *uint64
	period uint64
	held   []*coherence.MemRequest
	rmwMem map[addrspace.Addr]uint64
	got    []string // every request received, as opKey renders it

	maxLoads     int // most loads held at once
	rmwWithLoads int // RMWs received while a load was held
}

func loadValue(a addrspace.Addr) uint64 { return uint64(a) ^ 0x5555 }

// opKey renders a request's operands, or an instruction's, in one form.
func opKey(write, rmw bool, a addrspace.Addr, v, exp uint64, k coherence.RMWKind) string {
	switch {
	case rmw:
		return fmt.Sprintf("rmw %#x %d %d %d", a, v, exp, k)
	case write:
		return fmt.Sprintf("store %#x %d", a, v)
	}
	return fmt.Sprintf("load %#x", a)
}

func (p *holdingPort) loads() int {
	n := 0
	for _, r := range p.held {
		if !r.IsWrite && !r.IsRMW {
			n++
		}
	}
	return n
}

func (p *holdingPort) Access(r *coherence.MemRequest) {
	if slices.Contains(p.held, r) {
		p.t.Fatalf("cycle %d: request %+v reissued while outstanding", *p.now, *r)
	}
	if r.IsRMW && p.loads() > 0 {
		p.rmwWithLoads++
	}
	p.got = append(p.got, opKey(r.IsWrite, r.IsRMW, r.Addr, r.Value, r.Expected, r.RMW))
	p.held = append(p.held, r)
	p.maxLoads = max(p.maxLoads, p.loads())
}

// tick completes the youngest held request every period cycles.
func (p *holdingPort) tick() {
	if len(p.held) == 0 || *p.now%p.period != 0 {
		return
	}
	r := p.held[len(p.held)-1]
	p.held = p.held[:len(p.held)-1]
	switch {
	case r.IsRMW:
		old := p.rmwMem[r.Addr]
		p.rmwMem[r.Addr] = r.RMW.Apply(old, r.Value, r.Expected)
		r.Done(r, *p.now, old)
	case r.IsWrite:
		r.Done(r, *p.now, r.Value)
	default:
		r.Done(r, *p.now, loadValue(r.Addr))
	}
}

// resultSource feeds ins and checks every value the core hands back
// for a WantResult load or RMW. RMWs execute one at a time in program
// order, so a model of their memory predicts each old value.
type resultSource struct {
	t        testing.TB
	ins      []Instr
	next     int
	model    map[addrspace.Addr]uint64
	want     uint64
	wantSet  bool
	received int
}

func (s *resultSource) Next(prev uint64, prevValid bool) (Instr, bool) {
	if prevValid {
		if !s.wantSet || prev != s.want {
			s.t.Fatalf("instruction %d: core handed back %#x, want %#x (expected: %v)", s.next, prev, s.want, s.wantSet)
		}
		s.received++
	}
	s.wantSet = false
	if s.next >= len(s.ins) {
		return Instr{}, false
	}
	ins := s.ins[s.next]
	s.next++
	switch ins.Kind {
	case KLoad:
		s.want = loadValue(ins.Addr)
	case KRMW:
		s.want = s.model[ins.Addr]
		s.model[ins.Addr] = ins.RMW.Apply(s.want, ins.Value, ins.Expected)
	}
	s.wantSet = ins.WantResult && (ins.Kind == KLoad || ins.Kind == KRMW)
	return ins, true
}

// TestRequestLifetime runs cores against holdingPort, which completes
// loads out of order and fails on a request reused while outstanding,
// in the three situations that recycle the core's requests: a full
// load queue (the ring of load requests wraps), an RMW launched at the
// ROB head while younger loads are outstanding (its one request is
// not any load's), and compute drains that retire completed loads
// (the drain frees their ring slots). Each must finish, send every
// instruction's operands exactly once, and hand back every WantResult
// value.
func TestRequestLifetime(t *testing.T) {
	var loads, rmws, drainLoads []Instr
	for i := range 40 {
		loads = append(loads, Instr{Kind: KLoad, Addr: addrspace.Addr(0x3000 + 8*i), WantResult: i%10 == 9})
	}
	for i := range 6 {
		rmws = append(rmws, Instr{Kind: KRMW, Addr: 0x1000, RMW: coherence.RMWKind(i % 4),
			Value: uint64(i + 2), Expected: uint64(i % 3), WantResult: i%2 == 1})
		for j := range 5 {
			rmws = append(rmws, Instr{Kind: KLoad, Addr: addrspace.Addr(0x3000 + 8*j), WantResult: j == 4 && i == 5})
		}
		rmws = append(rmws, Instr{Kind: KStore, Addr: 0x2000, Value: uint64(i)})
	}
	for i := range 4 {
		// The port completes the first load of a group last, so the ROB
		// fills behind it with completed loads that the long run's drain
		// retires. A burst of loads then fills the queue again.
		for j := range 3 {
			drainLoads = append(drainLoads, Instr{Kind: KLoad, Addr: addrspace.Addr(0x3000 + 64*i + 8*j)},
				Instr{Kind: KCompute, N: 8})
		}
		drainLoads = append(drainLoads, Instr{Kind: KCompute, N: 400})
		for j := range 6 {
			drainLoads = append(drainLoads, Instr{Kind: KLoad, Addr: addrspace.Addr(0x4000 + 64*i + 8*j)})
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		period uint64
		ins    []Instr
		check  func(p *holdingPort, cov drainCoverage) error
	}{
		{"full load queue", Config{ROBSize: 32, IssueWidth: 4, LoadQueue: 4, WriteBuffer: 8}, 3, loads,
			func(p *holdingPort, _ drainCoverage) error {
				if p.maxLoads != 4 {
					return fmt.Errorf("at most %d loads outstanding, want a full load queue of 4", p.maxLoads)
				}
				return nil
			}},
		{"RMW behind outstanding loads", Config{ROBSize: 32, IssueWidth: 4, LoadQueue: 4, WriteBuffer: 8}, 3, rmws,
			func(p *holdingPort, _ drainCoverage) error {
				if p.rmwWithLoads == 0 {
					return fmt.Errorf("no RMW launched while a load was outstanding")
				}
				return nil
			}},
		{"drain retires loads", Config{ROBSize: 64, IssueWidth: 4, LoadQueue: 8, WriteBuffer: 8}, 3, drainLoads,
			func(_ *holdingPort, cov drainCoverage) error {
				if cov.loads == 0 {
					return fmt.Errorf("no drain retired a load (coverage %+v)", cov)
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var now uint64
			port := &holdingPort{t: t, now: &now, period: tc.period, rmwMem: map[addrspace.Addr]uint64{}}
			src := &resultSource{t: t, ins: tc.ins, model: map[addrspace.Addr]uint64{}}
			c := New(0, tc.cfg, src, port)
			var cov drainCoverage
			for !c.Done() {
				if now >= 100_000 {
					t.Fatalf("core did not finish: %s", c.Describe())
				}
				now++
				port.tick()
				if c.NeedsTick(now) {
					c.Tick(now)
					if c.drainTo > now {
						cov.count(c, now)
					}
				}
			}
			var want []string
			wantResults := 0
			for _, ins := range tc.ins {
				if ins.Kind == KLoad || ins.Kind == KStore || ins.Kind == KRMW {
					want = append(want, opKey(ins.Kind == KStore, ins.Kind == KRMW, ins.Addr, ins.Value, ins.Expected, ins.RMW))
				}
				if ins.WantResult {
					wantResults++
				}
			}
			slices.Sort(want)
			slices.Sort(port.got)
			if !slices.Equal(port.got, want) {
				t.Fatalf("requests sent\n %v\nwant\n %v", port.got, want)
			}
			if src.received != wantResults {
				t.Fatalf("core handed back %d values, want %d", src.received, wantResults)
			}
			if err := tc.check(port, cov); err != nil {
				t.Fatal(err)
			}
		})
	}
}
