// Package mesh implements the wired 2D-mesh packet-switched NoC
// (Table III: 1 cycle/hop, 128-bit links). Packets route XY with
// per-link serialization: a link is occupied for one cycle per flit, so
// concurrent traffic queues behind earlier packets. Delivery times are
// computed at injection by walking the route and reserving link slots,
// which models store-and-forward contention deterministically and
// cheaply. Packets then wait on an engine.Wheel keyed by arrival cycle,
// the allocation-free timing wheel the event queue is built on, so
// packets arriving in the same cycle are delivered in injection order;
// the machine drains arrivals every cycle.
package mesh

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// LinkBits is the link width in bits (Table III).
const LinkBits = 128

// FlitsFor returns the number of flits for a payload of the given size
// in bytes (at least 1).
func FlitsFor(bytes int) int {
	bits := bytes * 8
	f := (bits + LinkBits - 1) / LinkBits
	if f < 1 {
		f = 1
	}
	return f
}

// Packet is one message in flight on the mesh.
type Packet struct {
	Src, Dst int
	Flits    int
	Payload  any
}

// DeliverFunc receives a packet when it arrives at its destination.
type DeliverFunc func(now uint64, pkt Packet)

// Mesh is the wired network. Node i sits at (i%W, i/W).
type Mesh struct {
	w, h    int
	xy      []coord // node -> mesh coordinates, so Send never divides
	deliver DeliverFunc

	// Jitter, when non-zero, adds a pseudo-random 0..Jitter-1 cycle
	// delay to every packet while preserving per-(src,dst) FIFO order.
	// It exists for schedule-exploration testing: protocol correctness
	// must not depend on the exact delivery timing the contention model
	// produces, only on the FIFO property.
	Jitter     int
	jitterSeed uint64
	lastPair   map[uint32]uint64 // per-(src,dst) last arrival, FIFO floor

	// FaultDelay, when non-nil, draws extra delay cycles for one packet
	// routed from src to dst (fault injection: link stalls and
	// link-level retransmissions; internal/fault supplies the drawer).
	// While set, every packet — delayed or not — goes through the
	// per-(src,dst) FIFO floor, so an undelayed packet can never
	// overtake a delayed one and the wired protocol's ordering
	// assumptions survive the faults.
	FaultDelay func(src, dst int) uint64

	// linkFree[d] is the first cycle at which link d is free. Links are
	// indexed directionally: for each node, 4 outgoing links (E,W,N,S).
	linkFree []uint64

	// inflight orders packets by (arrival cycle, injection order) on
	// the same timing wheel the event queue uses.
	inflight engine.Wheel[Packet]

	// Trace receives one EvMeshLeg per routed packet; nil disables
	// emission.
	Trace obs.Sink

	// Measurements.
	HopsPerLeg  *stats.Histogram // Table V bins
	FlitHops    uint64           // energy: flit×hop traversals
	RouterXings uint64           // energy: packet×router traversals
	Packets     uint64
	TotalLat    uint64 // sum of injection→delivery latencies
}

const (
	dirE = iota
	dirW
	dirN
	dirS
	dirCount
)

// New builds a w×h mesh delivering packets through fn.
func New(w, h int, fn DeliverFunc) *Mesh {
	if w <= 0 || h <= 0 {
		panic("mesh: dimensions must be positive")
	}
	xy := make([]coord, w*h)
	for n := range xy {
		xy[n] = coord{n % w, n / w}
	}
	return &Mesh{
		w:          w,
		h:          h,
		xy:         xy,
		deliver:    fn,
		linkFree:   make([]uint64, w*h*dirCount),
		HopsPerLeg: stats.NewHistogram(0, 3, 6, 9, 12),
	}
}

type coord struct{ x, y int }

// hops is the XY-route hop count from a to b.
func (a coord) hops(b coord) int { return abs(a.x-b.x) + abs(a.y-b.y) }

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.w * m.h }

// HopDistance returns the XY-route hop count between two nodes.
func (m *Mesh) HopDistance(a, b int) int { return m.xy[a].hops(m.xy[b]) }

// Send injects a packet at cycle now. The delivery callback fires at the
// computed arrival cycle (during a subsequent Tick). Sending to self
// delivers next cycle without touching any link.
func (m *Mesh) Send(now uint64, pkt Packet) {
	if pkt.Dst < 0 || pkt.Dst >= m.Nodes() || pkt.Src < 0 || pkt.Src >= m.Nodes() {
		panic(fmt.Sprintf("mesh: bad endpoints src=%d dst=%d", pkt.Src, pkt.Dst))
	}
	if pkt.Flits < 1 {
		pkt.Flits = 1
	}
	m.Packets++
	src, dst := m.xy[pkt.Src], m.xy[pkt.Dst]
	hops := src.hops(dst)
	m.HopsPerLeg.Observe(hops)

	t := now
	if hops == 0 {
		t = now + 1 // local NIC turnaround
	} else {
		x, y := src.x, src.y
		dx, dy := dst.x, dst.y
		flits := uint64(pkt.Flits)
		for x != dx || y != dy {
			// Links are owned by the node a hop leaves from.
			var d int
			owner := y*m.w + x
			switch {
			case x < dx:
				d, x = dirE, x+1
			case x > dx:
				d, x = dirW, x-1
			case y < dy:
				d, y = dirN, y+1
			default:
				d, y = dirS, y-1
			}
			li := owner*dirCount + d
			if m.linkFree[li] > t {
				t = m.linkFree[li]
			}
			m.linkFree[li] = t + flits
			t++ // hop latency
		}
		m.FlitHops += uint64(hops) * flits
		m.RouterXings += uint64(hops)
	}
	if m.Jitter > 0 {
		m.jitterSeed = m.jitterSeed*6364136223846793005 + 1442695040888963407
		t += (m.jitterSeed >> 33) % uint64(m.Jitter)
	}
	if m.FaultDelay != nil {
		t += m.FaultDelay(pkt.Src, pkt.Dst)
	}
	if m.Jitter > 0 || m.FaultDelay != nil {
		key := uint32(pkt.Src)<<16 | uint32(pkt.Dst)
		if m.lastPair == nil {
			m.lastPair = make(map[uint32]uint64)
		}
		if last := m.lastPair[key]; t <= last {
			t = last + 1 // FIFO per pair survives the jitter and faults
		}
		m.lastPair[key] = t
	}
	if m.Trace != nil {
		m.Trace.Emit(obs.Event{Cycle: now, Kind: obs.EvMeshLeg,
			Node: int32(pkt.Src), Other: int32(pkt.Dst), Line: obs.NoLine,
			A: uint64(hops), B: t})
	}
	m.TotalLat += t - now
	m.inflight.Push(t, pkt)
}

// Tick delivers every packet whose arrival cycle is <= now, returning
// the number delivered. The machine calls this once per cycle before
// controllers run.
func (m *Mesh) Tick(now uint64) int {
	delivered := 0
	for {
		pkt, ok := m.inflight.PopDue(now)
		if !ok {
			return delivered
		}
		m.deliver(now, pkt)
		delivered++
	}
}

// Pending returns the number of packets still in flight.
func (m *Mesh) Pending() int { return m.inflight.Len() }

// NextEvent returns the earliest cycle > now at which Tick would
// deliver a packet, or never if nothing is in flight. Arrival
// reservations are computed at Send time, so the wheel's earliest
// pending cycle is exact.
func (m *Mesh) NextEvent(now uint64) uint64 {
	at, ok := m.inflight.Next()
	if !ok {
		return never
	}
	if at > now {
		return at
	}
	return now + 1
}

// never is the NextEvent sentinel for "no scheduled work".
const never = ^uint64(0)

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
