// Protocoltrace runs the motivating sharing pattern with per-line
// protocol event tracing enabled, so the wired->wireless->wired
// lifecycle of one contended line can be read directly: the wired MESI
// handoffs, the S->W upgrade (BrWirUpgr + tone), the stream of WirUpd
// broadcasts, and the eventual decay back to the wired protocol.
//
// The line's events stream to stderr as JSONL (the schema of widirsim
// -events); pipe them through `head` to see the opening transitions:
//
//	go run ./examples/protocoltrace 2>&1 | head -60
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"

	widir "repro"
	"repro/internal/addrspace"
	"repro/internal/obs"
)

// phases is a custom source driving one line through the full protocol
// lifecycle: a group-sharing phase (the line should go wireless), then
// a private phase (the line should decay back to wired).
type phases struct {
	core  int
	step  int
	total int
}

const tracedAddr = widir.Addr(0x2000)

// Next implements widir.InstrSource.
func (p *phases) Next(prev uint64, prevValid bool) (widir.Instr, bool) {
	if p.step >= p.total {
		return widir.Instr{}, false
	}
	p.step++
	switch {
	case p.step < p.total/2:
		// Phase 1: everyone reads the shared word; core (step%8) writes.
		if p.step%12 == 0 && p.step/12%8 == p.core {
			return widir.Instr{Kind: widir.KStore, Addr: tracedAddr, Value: uint64(p.step)}, true
		}
		return widir.Instr{Kind: widir.KLoad, Addr: tracedAddr}, true
	default:
		// Phase 2: private work only; the traced line decays out of W.
		a := widir.Addr(0x100000) + widir.Addr(p.core)*0x10000 + widir.Addr(p.step%32)*widir.LineSize
		return widir.Instr{Kind: widir.KLoad, Addr: a}, true
	}
}

func main() {
	line := addrspace.LineOf(addrspace.Addr(tracedAddr))
	fmt.Printf("tracing line %#x (addr %#x); protocol events follow on stderr\n",
		uint64(line), uint64(tracedAddr))

	const cores = 16
	cfg := widir.DefaultConfig(cores, widir.WiDir)
	w := bufio.NewWriter(os.Stderr)
	filter := obs.NewFilter()
	filter.Line = line
	cfg.Trace = filter.Sink(obs.NewJSONLSink(w))
	sources := make([]widir.InstrSource, cores)
	for i := range sources {
		sources[i] = &phases{core: i, total: 600}
	}
	res, err := widir.RunCustom(cfg, sources)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil { // a failed write also fails Flush
		log.Fatal(err)
	}
	fmt.Printf("done: %d cycles, S->W=%d, wireless writes=%d, W->S=%d, self-invalidations=%d\n",
		res.Cycles, res.SToW, res.WirelessWrites, res.WToS, res.SelfInvalidations)
}
