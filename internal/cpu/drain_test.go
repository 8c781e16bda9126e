package cpu

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/coherence"
)

// FuzzCoreDrain is the differential test of the compute drain
// (computeJump, drain): a core with the drain must be indistinguishable
// from one that ticks through every cycle the drain settles. Each input
// decodes to a small core geometry, an instruction stream and the
// latency of each memory request (decodeDrainInput); checkDrain runs it
// four ways and compares Stats, the memory traffic and the ROB-stall
// events, plus the caught-up pipeline state of every cycle.
func FuzzCoreDrain(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDrain(t, data)
	})
}

// decodeDrainInput decodes a fuzz input: four geometry bytes (ROB
// 4-180, issue width 1-8, load queue and write buffer 1-64), then up
// to 128 instructions of three bytes each (op, a, b). op%8 picks the
// kind — compute runs of 0-511 (0-2), loads (3-4), stores (5), RMWs
// (6), pauses of 0-63 cycles (7) — a and b the operands and
// WantResult, and a memory instruction's op>>3 its request's latency,
// 1-63 cycles. Requests take the latencies in the order the core sends
// them.
func decodeDrainInput(data []byte) (Config, []Instr, []uint64) {
	var g [4]byte
	copy(g[:], data)
	cfg := Config{
		ROBSize:     4 + int(g[0])%177,
		IssueWidth:  1 + int(g[1])%8,
		LoadQueue:   1 + int(g[2])%64,
		WriteBuffer: 1 + int(g[3])%64,
	}
	data = data[min(len(data), 4):]
	var ins []Instr
	var lats []uint64
	for ; len(data) >= 3 && len(ins) < 128; data = data[3:] {
		op, a, b := data[0], data[1], data[2]
		addr := addrspace.Addr(a%16) * 8
		switch op % 8 {
		case 0, 1, 2:
			ins = append(ins, Instr{Kind: KCompute, N: int(a) | int(b&1)<<8})
			continue
		case 3, 4:
			ins = append(ins, Instr{Kind: KLoad, Addr: addr, WantResult: b&1 != 0})
		case 5:
			ins = append(ins, Instr{Kind: KStore, Addr: addr, Value: uint64(b), WantResult: b&1 != 0})
		case 6:
			ins = append(ins, Instr{Kind: KRMW, Addr: addr, RMW: coherence.RMWKind(b % 4),
				Value: uint64(a >> 4), Expected: uint64(b >> 4 & 1), WantResult: b&8 != 0})
		case 7:
			ins = append(ins, Instr{Kind: KPause, N: int(a % 64)})
			continue
		}
		lats = append(lats, 1+uint64(op>>3)*2)
	}
	return cfg, ins, lats
}

// drainCoverage counts what the drain did in one checkDrain run.
type drainCoverage struct {
	drains   int // drains started
	loads    int // completed loads retired by a drain
	bounded  int // drains cut short by a store, RMW or pause
	turnover int // drains retiring more than the ROB held at their start
}

func (c *drainCoverage) add(o drainCoverage) {
	c.drains += o.drains
	c.loads += o.loads
	c.bounded += o.bounded
	c.turnover += o.turnover
}

// checkDrain runs one decoded input on four cores: on (the drain as
// shipped), off (noDrain: ticks through every cycle it must), probe
// (the drain, caught up after every cycle) and every (the drain,
// ticked every cycle regardless of NeedsTick). on and off must agree
// on Stats, finishing cycle, memory traffic (cycle, kind, address,
// value) and EvROBStall events; probe and every must match off's
// Stats and Describe at every cycle.
func checkDrain(t testing.TB, data []byte) drainCoverage {
	t.Helper()
	cfg, ins, lats := decodeDrainInput(data)
	mk := func(noDrain bool) (*rig, *stallLog) {
		ev := &stallLog{}
		c := cfg
		c.Trace = ev
		r := newRig(c, 1, ins...)
		r.mem.lats = lats
		r.c.noDrain = noDrain
		return r, ev
	}
	on, onEv := mk(false)
	off, offEv := mk(true)
	probe, _ := mk(false)
	every, _ := mk(false)

	const limit = 1 << 20
	for !off.c.Done() {
		if off.now >= limit {
			t.Fatalf("core without the drain did not finish: %s", off.c.Describe())
		}
		off.cycle()
		probe.cycle()
		every.now++
		every.mem.tick()
		every.c.Tick(every.now)
		off.c.CatchUp(off.now)
		probe.c.CatchUp(probe.now)
		want := off.c.Describe()
		for _, r := range []*rig{probe, every} {
			if got := r.c.Describe(); got != want || r.c.Stats != off.c.Stats || r.c.Done() != off.c.Done() {
				t.Fatalf("cycle %d: drain core (ticked every cycle: %v) differs\n drain: %s %+v\n ticks: %s %+v",
					off.now, r == every, got, r.c.Stats, want, off.c.Stats)
			}
		}
	}

	var cov drainCoverage
	for !on.c.Done() {
		if on.now >= limit {
			t.Fatalf("core with the drain did not finish: %s", on.c.Describe())
		}
		ticks := on.ticks
		on.cycle()
		if c := on.c; on.ticks > ticks && c.drainTo > on.now {
			cov.count(c, on.now)
		}
	}
	if on.now != off.now || on.c.Stats != off.c.Stats {
		t.Fatalf("drain finished in cycle %d with %+v, ticking every cycle in %d with %+v",
			on.now, on.c.Stats, off.now, off.c.Stats)
	}
	if !reflect.DeepEqual(on.mem.log, off.mem.log) {
		t.Fatalf("memory traffic differs\n drain: %v\n ticks: %v", on.mem.log, off.mem.log)
	}
	if !reflect.DeepEqual(*onEv, *offEv) {
		t.Fatalf("ROB-stall events differ\n drain: %v\n ticks: %v", *onEv, *offEv)
	}
	return cov
}

// count records a drain c started in its tick at now.
func (cov *drainCoverage) count(c *Core, now uint64) {
	width := c.cfg.IssueWidth
	k := int(c.drainTo - now)
	cov.drains++
	if k < c.computeRun/width-1 {
		cov.bounded++
	}
	if k*width > c.robCount {
		cov.turnover++
	}
	i := c.robHead
	for n, pos := 0, 0; n < c.entryCount && pos < k*width; n++ {
		e := &c.rob[i]
		if e.kind == KLoad {
			cov.loads++
		}
		pos += int(e.count)
		if i++; i == c.cfg.ROBSize {
			i = 0
		}
	}
}

// TestCoreDrainCorpusCoverage checks that the checked-in FuzzCoreDrain
// seed corpus, which plain `go test` runs, reaches every case the
// differential test is for: drains over completed loads, drains cut
// short by a store, RMW or pause, and drains in a ROB small enough to
// turn over within one drain.
func TestCoreDrainCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCoreDrain", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzCoreDrain seed corpus: %v", err)
	}
	var total drainCoverage
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
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total.add(checkDrain(t, []byte(data)))
	}
	if total.loads == 0 || total.bounded == 0 || total.turnover == 0 {
		t.Fatalf("seed corpus coverage %+v: need drained loads, bounded drains and ROB turnover", total)
	}
}
