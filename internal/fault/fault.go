// Package fault is the simulator's deterministic fault-injection
// layer. The paper's WNoC is viable because collisions are detected
// and retried and the channel bit-error rate is negligible (§III,
// Table III); this package lets a run relax those assumptions on
// purpose — corrupting wireless transfers with a modeled BER, stalling
// or dropping flits on selected wired-mesh links, and delaying
// directory responses — so the protocol's recovery paths (wireless
// retry with backoff, W→S degradation, typed protocol errors) can be
// exercised systematically.
//
// Determinism contract (DESIGN.md §12): every fault decision is drawn
// from seeded internal/xrand streams, one independent stream per fault
// class, consumed in the simulator's single-threaded cycle order. Two
// runs with the same (machine config, workload, fault Config) are
// bit-identical, faults included, so any faulty run can be replayed
// exactly from its seeds. Enabling one fault class never perturbs the
// draws of another.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// Link names one directed wired-mesh link by its endpoint nodes. Fault
// configuration uses route endpoints (packet src/dst), which is how
// the experiment recipes describe an afflicted path.
type Link struct {
	Src int
	Dst int
}

// String renders the link as "src-dst" (the -fault-links syntax).
func (l Link) String() string { return fmt.Sprintf("%d-%d", l.Src, l.Dst) }

// Config declares the faults to inject. The zero value injects
// nothing. All probabilities are per-event (per wireless transmission,
// per routed packet, per directory request).
type Config struct {
	// Seed seeds the fault streams. Zero derives a default from a
	// fixed constant so that a Config carrying only a BER is already
	// fully specified; machines mix their own seed in via New's caller
	// contract (machine.Config passes Seed explicitly).
	Seed uint64

	// WirelessBER is the probability that one wireless data-channel
	// transmission is corrupted in flight (CRC failure at every
	// receiver: the packet is lost, nobody merges it, and the sender's
	// collision/ack logic observes the failure and retries).
	WirelessBER float64

	// LinkStallPct is the probability that a packet routed over an
	// afflicted link (see Links) is stalled by LinkStallCycles —
	// modeling transient congestion or a link-level CRC retry.
	LinkStallPct    float64
	LinkStallCycles uint64

	// LinkDropPct is the probability that a packet routed over an
	// afflicted link is dropped and recovered by link-level
	// retransmission, costing LinkDropCycles. Coherence messages are
	// never lost end-to-end (the wired protocol has no retransmit
	// layer); a drop is a long, bounded delay.
	LinkDropPct    float64
	LinkDropCycles uint64

	// Links selects the afflicted links by route endpoints. Empty
	// means every link is afflicted (when a stall/drop rate is set).
	Links []Link

	// DirDelayPct is the probability that one directory request
	// (GetS/GetX) pays DirDelayCycles of extra LLC access latency —
	// modeling tag-bank contention or a busy slice.
	DirDelayPct    float64
	DirDelayCycles uint64
}

// Enabled reports whether the configuration injects any fault at all.
// A positive rate is sufficient: the cycle budgets take their defaults
// in New when left zero.
func (c Config) Enabled() bool {
	return c.WirelessBER > 0 || c.LinkStallPct > 0 || c.LinkDropPct > 0 || c.DirDelayPct > 0
}

// Validate rejects a configuration no run could honour: every rate
// must be a finite probability in [0, 1], and every afflicted link
// must name nodes below nodes, the machine's node count. A link with
// src == dst is valid: a node's packets to itself cross its router.
func (c Config) Validate(nodes int) error {
	for _, r := range []struct {
		name string
		p    float64
	}{
		{"WirelessBER", c.WirelessBER},
		{"LinkStallPct", c.LinkStallPct},
		{"LinkDropPct", c.LinkDropPct},
		{"DirDelayPct", c.DirDelayPct},
	} {
		if !(r.p >= 0 && r.p <= 1) { // also rejects NaN
			return fmt.Errorf("fault: %s %v must be a probability in [0, 1]", r.name, r.p)
		}
	}
	for _, l := range c.Links {
		if l.Src < 0 || l.Dst < 0 || l.Src >= nodes || l.Dst >= nodes {
			return fmt.Errorf("fault: link %v names a node outside the machine's %d nodes", l, nodes)
		}
	}
	return nil
}

// fill applies the defaults for secondary knobs so a Config that only
// names a rate is usable as-is.
func (c Config) fill() Config {
	if c.Seed == 0 {
		c.Seed = 0x5DEECE66D // any fixed nonzero constant
	}
	if c.LinkStallCycles == 0 {
		c.LinkStallCycles = 16
	}
	if c.LinkDropCycles == 0 {
		c.LinkDropCycles = 64
	}
	if c.DirDelayCycles == 0 {
		c.DirDelayCycles = 24
	}
	return c
}

// ParseLinks parses a comma-separated "src-dst,src-dst" list (the
// -fault-links flag syntax) into Links. Each part, trimmed of
// surrounding space, must be exactly two non-negative decimal node
// numbers joined by one '-'; anything else, trailing input included,
// is an error.
func ParseLinks(s string) ([]Link, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Link
	for _, part := range strings.Split(s, ",") {
		src, dst, ok := strings.Cut(strings.TrimSpace(part), "-")
		l := Link{Src: parseNode(src), Dst: parseNode(dst)}
		if !ok || l.Src < 0 || l.Dst < 0 {
			return nil, fmt.Errorf("fault: bad link %q (want \"src-dst\" with non-negative node numbers)", part)
		}
		out = append(out, l)
	}
	return out, nil
}

// parseNode parses a non-negative decimal node number, returning -1
// for anything else: an empty string, a sign, a non-digit, or a value
// that overflows int.
func parseNode(s string) int {
	if s == "" || strings.TrimLeft(s, "0123456789") != "" {
		return -1
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// Stats counts the faults an Injector actually injected.
type Stats struct {
	WirelessCorruptions stats.Counter // transmissions corrupted
	LinkStalls          stats.Counter // packets stalled
	LinkDrops           stats.Counter // packets dropped+retransmitted
	DirDelays           stats.Counter // directory requests delayed
}

// Injector draws fault decisions for one machine. It is not safe for
// concurrent use; the machine calls it from its single-threaded cycle
// loop, which is also what makes the draw order — and therefore the
// whole faulty run — deterministic.
type Injector struct {
	cfg Config

	// One independent stream per fault class: enabling or re-rating
	// one class never shifts another's draw sequence.
	wireless *xrand.Source
	mesh     *xrand.Source
	dir      *xrand.Source

	// linkSet holds the afflicted links; nil means all links.
	linkSet map[Link]bool

	Stats Stats
}

// New builds an injector for the configuration, or nil when the
// configuration injects nothing — callers can test and skip the whole
// layer with one nil check.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.fill()
	in := &Injector{
		cfg: cfg,
		// Distinct mixing constants per class; derived from the one
		// seed so (Config, seed) fully keys the fault schedule.
		wireless: xrand.New(cfg.Seed ^ 0x77697265).Split(), // "wire"
		mesh:     xrand.New(cfg.Seed ^ 0x6d657368).Split(), // "mesh"
		dir:      xrand.New(cfg.Seed ^ 0x00646972).Split(), // "dir"
	}
	if len(cfg.Links) > 0 {
		in.linkSet = make(map[Link]bool, len(cfg.Links))
		for _, l := range cfg.Links {
			in.linkSet[l] = true
		}
	}
	return in
}

// Config returns the (filled) configuration the injector runs.
func (in *Injector) Config() Config { return in.cfg }

// CorruptTx draws whether one wireless transmission is corrupted. One
// draw per completed transmission, in channel completion order.
func (in *Injector) CorruptTx() bool {
	if in.cfg.WirelessBER <= 0 {
		return false
	}
	if !in.wireless.Bool(in.cfg.WirelessBER) {
		return false
	}
	in.Stats.WirelessCorruptions.Inc()
	return true
}

// LinkDelay draws the extra delay for one packet routed from src to
// dst: 0 for a clean traversal, LinkStallCycles for a stall, or
// LinkDropCycles for a drop recovered by link-level retransmission.
// Only afflicted links consume draws, so narrowing Links never shifts
// the schedule of the links that remain.
func (in *Injector) LinkDelay(src, dst int) uint64 {
	if in.cfg.LinkStallPct <= 0 && in.cfg.LinkDropPct <= 0 {
		return 0
	}
	if in.linkSet != nil && !in.linkSet[Link{Src: src, Dst: dst}] {
		return 0
	}
	u := in.mesh.Float64()
	if u < in.cfg.LinkDropPct {
		in.Stats.LinkDrops.Inc()
		return in.cfg.LinkDropCycles
	}
	if u < in.cfg.LinkDropPct+in.cfg.LinkStallPct {
		in.Stats.LinkStalls.Inc()
		return in.cfg.LinkStallCycles
	}
	return 0
}

// DirDelay draws the extra LLC latency for one directory request.
func (in *Injector) DirDelay() uint64 {
	if in.cfg.DirDelayPct <= 0 {
		return 0
	}
	if !in.dir.Bool(in.cfg.DirDelayPct) {
		return 0
	}
	in.Stats.DirDelays.Inc()
	return in.cfg.DirDelayCycles
}

// Describe renders the active fault classes for logs and experiment
// headers, in a fixed order.
func (in *Injector) Describe() string {
	var parts []string
	c := in.cfg
	if c.WirelessBER > 0 {
		parts = append(parts, fmt.Sprintf("wireless BER %g", c.WirelessBER))
	}
	if c.LinkStallPct > 0 {
		parts = append(parts, fmt.Sprintf("link stall %g%%/%dcy", 100*c.LinkStallPct, c.LinkStallCycles))
	}
	if c.LinkDropPct > 0 {
		parts = append(parts, fmt.Sprintf("link drop %g%%/%dcy", 100*c.LinkDropPct, c.LinkDropCycles))
	}
	if c.DirDelayPct > 0 {
		parts = append(parts, fmt.Sprintf("dir delay %g%%/%dcy", 100*c.DirDelayPct, c.DirDelayCycles))
	}
	if len(c.Links) > 0 {
		ls := make([]string, len(c.Links))
		for i, l := range c.Links {
			ls[i] = l.String()
		}
		sort.Strings(ls)
		parts = append(parts, "links "+strings.Join(ls, ","))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "; ")
}
