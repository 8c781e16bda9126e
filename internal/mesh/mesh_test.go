package mesh

import (
	"testing"
	"testing/quick"
)

type delivery struct {
	at  uint64
	pkt Packet
}

func collect() (*[]delivery, DeliverFunc) {
	var ds []delivery
	return &ds, func(now uint64, pkt Packet) {
		ds = append(ds, delivery{now, pkt})
	}
}

func pump(m *Mesh, until uint64) {
	for c := uint64(1); c <= until; c++ {
		m.Tick(c)
	}
}

func TestFlitsFor(t *testing.T) {
	if FlitsFor(8) != 1 {
		t.Fatalf("control packet flits = %d", FlitsFor(8))
	}
	if FlitsFor(72) != 5 {
		t.Fatalf("data packet flits = %d", FlitsFor(72))
	}
	if FlitsFor(0) != 1 {
		t.Fatal("zero-byte packet must still be one flit")
	}
}

func TestHopDistance(t *testing.T) {
	m := New(4, 4, func(uint64, Packet) {})
	if m.HopDistance(0, 0) != 0 {
		t.Fatal("self distance")
	}
	if m.HopDistance(0, 3) != 3 {
		t.Fatal("row distance")
	}
	if m.HopDistance(0, 15) != 6 {
		t.Fatal("corner distance")
	}
	if m.HopDistance(5, 6) != 1 {
		t.Fatal("neighbor distance")
	}
}

func TestDeliveryLatency(t *testing.T) {
	ds, fn := collect()
	m := New(4, 4, fn)
	m.Send(0, Packet{Src: 0, Dst: 3, Flits: 1})
	pump(m, 10)
	if len(*ds) != 1 {
		t.Fatalf("deliveries = %d", len(*ds))
	}
	// 3 hops at 1 cycle/hop, uncontended.
	if (*ds)[0].at != 3 {
		t.Fatalf("arrival at %d, want 3", (*ds)[0].at)
	}
}

func TestSelfDelivery(t *testing.T) {
	ds, fn := collect()
	m := New(2, 2, fn)
	m.Send(5, Packet{Src: 1, Dst: 1, Flits: 1})
	pump(m, 10)
	if len(*ds) != 1 || (*ds)[0].at != 6 {
		t.Fatalf("self delivery: %+v", *ds)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	ds, fn := collect()
	m := New(4, 1, fn)
	// Two 5-flit packets over the same first link, injected together.
	m.Send(0, Packet{Src: 0, Dst: 3, Flits: 5})
	m.Send(0, Packet{Src: 0, Dst: 3, Flits: 5})
	pump(m, 50)
	if len(*ds) != 2 {
		t.Fatalf("deliveries = %d", len(*ds))
	}
	if (*ds)[1].at <= (*ds)[0].at {
		t.Fatal("contended packets arrived together")
	}
	// The second must wait ~5 cycles of serialization per shared link.
	if (*ds)[1].at < (*ds)[0].at+5 {
		t.Fatalf("insufficient serialization: %d then %d", (*ds)[0].at, (*ds)[1].at)
	}
}

func TestFIFOPerSourceDest(t *testing.T) {
	// Messages between one src/dst pair must deliver in injection
	// order regardless of size — the coherence protocol depends on it.
	if err := quick.Check(func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		ds, fn := collect()
		m := New(4, 4, fn)
		for i, s := range sizes {
			m.Send(uint64(i/3), Packet{Src: 1, Dst: 14, Flits: int(s%5) + 1, Payload: i})
		}
		pump(m, 1000)
		if len(*ds) != len(sizes) {
			return false
		}
		for i, d := range *ds {
			if d.pkt.Payload.(int) != i {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsHistogram(t *testing.T) {
	_, fn := collect()
	m := New(8, 8, fn)
	m.Send(0, Packet{Src: 0, Dst: 63, Flits: 1}) // 14 hops -> 12+ bin
	m.Send(0, Packet{Src: 0, Dst: 1, Flits: 1})  // 1 hop -> 0-2 bin
	pump(m, 50)
	if m.HopsPerLeg.Count(4) != 1 || m.HopsPerLeg.Count(0) != 1 {
		t.Fatalf("hop histogram: %s", m.HopsPerLeg)
	}
}

func TestEnergyCounters(t *testing.T) {
	_, fn := collect()
	m := New(4, 1, fn)
	m.Send(0, Packet{Src: 0, Dst: 2, Flits: 3})
	pump(m, 20)
	if m.FlitHops.Value() != 6 { // 2 hops x 3 flits
		t.Fatalf("flit-hops = %d", m.FlitHops.Value())
	}
	if m.RouterXings.Value() != 2 {
		t.Fatalf("router crossings = %d", m.RouterXings.Value())
	}
	if m.Packets.Value() != 1 {
		t.Fatalf("packets = %d", m.Packets.Value())
	}
}

func TestPendingAndNextEvent(t *testing.T) {
	_, fn := collect()
	m := New(4, 4, fn)
	if m.NextEvent(0) != never || m.Pending() != 0 {
		t.Fatal("idle mesh reported an arrival")
	}
	m.Send(0, Packet{Src: 0, Dst: 3, Flits: 1})
	if m.Pending() != 1 {
		t.Fatal("pending != 1")
	}
	if at := m.NextEvent(0); at != 3 {
		t.Fatalf("next event = %d, want the arrival cycle 3", at)
	}
	if at := m.NextEvent(4); at != 5 {
		t.Fatalf("overdue arrival: next event = %d, want now+1", at)
	}
	pump(m, 5)
	if m.Pending() != 0 || m.NextEvent(5) != never {
		t.Fatal("packet not drained")
	}
}

// TestFarBacklogKeepsArrivalOrder builds a link backlog deeper than the
// timing wheel, so most packets are scheduled through the far heap,
// while short hops injected every cycle land in wheel slots on the
// same arrival cycles. Deliveries must still come out in (arrival,
// injection) order.
func TestFarBacklogKeepsArrivalOrder(t *testing.T) {
	ds, fn := collect()
	m := New(4, 1, fn)
	var sentAt []uint64
	send := func(now uint64, src, dst, flits int) {
		m.Send(now, Packet{Src: src, Dst: dst, Flits: flits, Payload: len(sentAt)})
		sentAt = append(sentAt, now)
	}
	for i := 0; i < 80; i++ {
		send(0, 0, 3, 5) // serialized 5 cycles apart on every eastbound link
	}
	for c := uint64(1); c <= 600; c++ {
		m.Tick(c)
		send(c, 3, 2, 1) // westbound, uncontended: arrives next cycle
	}
	m.Tick(601)
	if len(*ds) != len(sentAt) || m.Pending() != 0 {
		t.Fatalf("delivered %d of %d packets, %d pending", len(*ds), len(sentAt), m.Pending())
	}
	far, shared := 0, 0
	for i, d := range *ds {
		idx := d.pkt.Payload.(int)
		if d.at-sentAt[idx] >= 256 {
			far++
		}
		if i == 0 {
			continue
		}
		prev := (*ds)[i-1]
		if d.at < prev.at || d.at == prev.at && idx < prev.pkt.Payload.(int) {
			t.Fatalf("delivery %d (packet %d at %d) after packet %d at %d",
				i, idx, d.at, prev.pkt.Payload.(int), prev.at)
		}
		if d.at == prev.at {
			shared++
		}
	}
	if far < 10 || shared < 10 {
		t.Fatalf("test does not exercise the far path: %d far packets, %d shared arrival cycles", far, shared)
	}
}

func TestBadEndpointsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad destination did not panic")
		}
	}()
	m := New(2, 2, func(uint64, Packet) {})
	m.Send(0, Packet{Src: 0, Dst: 9, Flits: 1})
}

func TestZeroFlitsClamped(t *testing.T) {
	ds, fn := collect()
	m := New(2, 2, fn)
	m.Send(0, Packet{Src: 0, Dst: 1})
	pump(m, 10)
	if len(*ds) != 1 {
		t.Fatal("zero-flit packet lost")
	}
}

func TestJitterPreservesFIFO(t *testing.T) {
	if err := quick.Check(func(seed uint16, sizes []uint8) bool {
		if len(sizes) > 15 {
			sizes = sizes[:15]
		}
		ds, fn := collect()
		m := New(4, 4, fn)
		m.Jitter = int(seed%37) + 2
		for i, s := range sizes {
			m.Send(uint64(i), Packet{Src: 1, Dst: 14, Flits: int(s%5) + 1, Payload: i})
		}
		pump(m, 5000)
		if len(*ds) != len(sizes) {
			return false
		}
		for i, d := range *ds {
			if d.pkt.Payload.(int) != i {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
