package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/addrspace"
)

func ev(cycle uint64, k Kind, node int32) Event {
	return Event{Cycle: cycle, Kind: k, Node: node, Other: NoNode, Line: NoLine}
}

func TestKindAndClassNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Group() == "" {
			t.Errorf("kind %s belongs to no filter group", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
	for c := Class(0); c < classCount; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
	if !ClassWirelessStore.Wireless() || !ClassWirelessRMW.Wireless() {
		t.Error("wireless classes must report Wireless")
	}
	if ClassWiredLoad.Wireless() || ClassWiredStore.Wireless() || ClassWiredRMW.Wireless() {
		t.Error("wired classes must not report Wireless")
	}
}

func TestRingSinkBelowCapacity(t *testing.T) {
	r := NewRingSink(8)
	for i := uint64(0); i < 5; i++ {
		r.Emit(ev(i, EvMsgSend, 0))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 5/0", r.Len(), r.Dropped())
	}
	got := r.Events()
	for i, e := range got {
		if e.Cycle != uint64(i) {
			t.Fatalf("event %d has cycle %d", i, e.Cycle)
		}
	}
}

func TestRingSinkWraparound(t *testing.T) {
	r := NewRingSink(4)
	for i := uint64(0); i < 10; i++ {
		r.Emit(ev(i, EvMsgSend, 0))
	}
	if r.Len() != 4 {
		t.Fatalf("Len=%d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped=%d, want 6", r.Dropped())
	}
	got := r.Events()
	want := []uint64{6, 7, 8, 9}
	for i, w := range want {
		if got[i].Cycle != w {
			t.Fatalf("Events()[%d].Cycle=%d, want %d (oldest first)", i, got[i].Cycle, w)
		}
	}
}

func TestRingSinkMinimumCapacity(t *testing.T) {
	r := NewRingSink(0)
	r.Emit(ev(1, EvJam, 2))
	r.Emit(ev(2, EvJam, 3))
	if r.Len() != 1 || r.Events()[0].Cycle != 2 {
		t.Fatalf("cap-0 ring should clamp to 1 and keep the newest event")
	}
}

// TestRingSinkHugeCapacity: a capacity far beyond memory (widirsim's
// -buf takes any positive int) costs only the events emitted.
func TestRingSinkHugeCapacity(t *testing.T) {
	r := NewRingSink(math.MaxInt)
	for i := uint64(0); i < 5; i++ {
		r.Emit(ev(i, EvMsgSend, 0))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 5 and 0", r.Len(), r.Dropped())
	}
	for i, e := range r.Events() {
		if e.Cycle != uint64(i) {
			t.Fatalf("Events()[%d].Cycle=%d, want %d (oldest first)", i, e.Cycle, i)
		}
	}
}

func TestRingSinkEmitDoesNotAllocate(t *testing.T) {
	r := NewRingSink(64)
	e := Event{Cycle: 1, Kind: EvMsgSend, Node: 3, Other: 4, Line: 0x80, A: 5, B: 6}
	if n := testing.AllocsPerRun(1000, func() { r.Emit(e) }); n != 0 {
		t.Fatalf("RingSink.Emit allocates %.1f per call, want 0", n)
	}
}

func TestAppendJSONExactBytes(t *testing.T) {
	e := Event{Cycle: 42, Kind: EvTxnBegin, Node: 3, Other: -1, Line: 0x80, A: 1, B: 2}
	got := string(AppendJSON(nil, e))
	want := `{"cycle":42,"kind":"txn-begin","node":3,"other":-1,"line":"0x80","a":1,"b":2}`
	if got != want {
		t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
	}
	e.Line = NoLine
	got = string(AppendJSON(nil, e))
	want = `{"cycle":42,"kind":"txn-begin","node":3,"other":-1,"line":"-","a":1,"b":2}`
	if got != want {
		t.Fatalf("AppendJSON NoLine:\n got %s\nwant %s", got, want)
	}
	// Every encoding must also be valid JSON.
	var m map[string]any
	if err := json.Unmarshal(AppendJSON(nil, e), &m); err != nil {
		t.Fatalf("AppendJSON output is not valid JSON: %v", err)
	}
}

func TestJSONLSinkStreamsAndReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for i := uint64(0); i < 3; i++ {
		s.Emit(ev(i, EvNACK, int32(i)))
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, ln := range lines {
		if !strings.HasPrefix(ln, fmt.Sprintf(`{"cycle":%d,"kind":"nack"`, i)) {
			t.Fatalf("line %d = %s", i, ln)
		}
	}
	// Steady-state emission should not allocate (buffer reused).
	e := ev(9, EvNACK, 1)
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	js := NewJSONLSink(&sink)
	js.Emit(e) // warm the buffer
	if n := testing.AllocsPerRun(100, func() { js.Emit(e) }); n > 0.1 {
		t.Fatalf("JSONLSink.Emit allocates %.1f per call at steady state", n)
	}
}

type errWriter struct{ failed bool }

func (w *errWriter) Write(p []byte) (int, error) {
	w.failed = true
	return 0, fmt.Errorf("disk full")
}

func TestJSONLSinkStickyError(t *testing.T) {
	w := &errWriter{}
	s := NewJSONLSink(w)
	s.Emit(ev(1, EvJam, 0))
	if s.Err() == nil {
		t.Fatal("expected write error")
	}
	w.failed = false
	s.Emit(ev(2, EvJam, 0))
	if w.failed {
		t.Fatal("sink must stop writing after the first error")
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("")
	if err != nil || all != AllKinds {
		t.Fatalf("empty spec: got %v, %v", all, err)
	}
	set, err := ParseKinds("wnoc, txn")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{EvSlotGrant, EvCollision, EvJam, EvToneRaise, EvTxnBegin, EvTxnEnd} {
		if !set.Has(k) {
			t.Errorf("wnoc,txn should include %s", k)
		}
	}
	if set.Has(EvL1Miss) {
		t.Error("wnoc,txn must not include l1-miss")
	}
	set, err = ParseKinds("l1-fill")
	if err != nil || !set.Has(EvL1Fill) || set.Has(EvL1Miss) {
		t.Fatalf("individual kind name: got %v, %v", set, err)
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Fatal("unknown class must error")
	}
}

func TestFilterMatch(t *testing.T) {
	f := NewFilter()
	e := Event{Cycle: 1, Kind: EvMsgSend, Node: 2, Other: 5, Line: 0x40}
	if !f.Match(e) {
		t.Fatal("default filter must match everything")
	}
	f.Node = 5
	if !f.Match(e) {
		t.Fatal("filter must match on Other too")
	}
	f.Node = 3
	if f.Match(e) {
		t.Fatal("node 3 must not match")
	}
	f = NewFilter()
	f.Line = 0x41
	if f.Match(e) {
		t.Fatal("line mismatch must fail")
	}
	f.Line = 0x40
	f.Kinds = KindSet(0).With(EvJam)
	if f.Match(e) {
		t.Fatal("kind mismatch must fail")
	}
	f.Kinds = f.Kinds.With(EvMsgSend)
	if !f.Match(e) {
		t.Fatal("full match expected")
	}
	only := Filter{Kinds: KindSet(0).With(EvMsgSend), Node: NoNode, Line: NoLine}
	kept := only.Apply([]Event{e, ev(2, EvJam, 0)})
	if len(kept) != 1 || kept[0].Kind != EvMsgSend {
		t.Fatalf("Apply kept %v", kept)
	}
	ring := NewRingSink(4)
	sink := only.Sink(ring)
	for _, x := range []Event{ev(2, EvJam, 0), e, ev(3, EvMsgSend, 1)} {
		sink.Emit(x)
	}
	if got := ring.Events(); len(got) != 2 || got[0] != e || got[1].Cycle != 3 {
		t.Fatalf("Sink passed on %v, want the two msg-send events in order", got)
	}
}

func spanPair(node int32, id, start, end uint64, cl Class, line addrspace.Line) []Event {
	return []Event{
		{Cycle: start, Kind: EvTxnBegin, Node: node, Other: NoNode, Line: line, A: id, B: uint64(cl)},
		{Cycle: end, Kind: EvTxnEnd, Node: node, Other: NoNode, Line: line, A: id, B: uint64(cl)},
	}
}

func TestBuildSpans(t *testing.T) {
	var events []Event
	events = append(events, spanPair(1, 1, 10, 30, ClassWiredLoad, 0x80)...)
	events = append(events, spanPair(2, 1, 5, 50, ClassWirelessStore, 0x90)...)
	// Begin without end (in flight at capture stop): dropped.
	events = append(events, Event{Cycle: 40, Kind: EvTxnBegin, Node: 3, A: 7, B: uint64(ClassWiredRMW)})
	// End without begin (begin evicted from a wrapped ring): dropped.
	events = append(events, Event{Cycle: 41, Kind: EvTxnEnd, Node: 4, A: 9, B: uint64(ClassWiredStore)})

	spans := BuildSpans(events)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ordered by start cycle.
	if spans[0].Node != 2 || spans[0].Start != 5 || spans[0].End != 50 ||
		spans[0].Class != ClassWirelessStore || spans[0].Line != 0x90 {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[1].Node != 1 || spans[1].Latency() != 20 || spans[1].Class != ClassWiredLoad {
		t.Fatalf("span[1] = %+v", spans[1])
	}
}

func TestBuildSpansSameIDDifferentNodes(t *testing.T) {
	var events []Event
	events = append(events, spanPair(0, 1, 0, 10, ClassWiredLoad, 0x10)...)
	events = append(events, spanPair(1, 1, 0, 20, ClassWiredStore, 0x20)...)
	spans := BuildSpans(events)
	if len(spans) != 2 {
		t.Fatalf("span ids are per-node; got %d spans, want 2", len(spans))
	}
	if spans[0].Node != 0 || spans[1].Node != 1 {
		t.Fatalf("tie on Start must order by Node: %+v", spans)
	}
}

func TestSummarizeSplitsByClass(t *testing.T) {
	var events []Event
	for i := uint64(0); i < 10; i++ {
		events = append(events, spanPair(0, i+1, i*100, i*100+40, ClassWiredLoad, 0x10)...)
	}
	for i := uint64(0); i < 5; i++ {
		events = append(events, spanPair(1, i+1, i*100, i*100+8, ClassWirelessStore, 0x20)...)
	}
	s := Summarize(BuildSpans(events))
	if s.Wired.Total() != 10 || s.Wireless.Total() != 5 {
		t.Fatalf("totals %d/%d, want 10/5", s.Wired.Total(), s.Wireless.Total())
	}
	if p := s.Wired.P50(); p < 32 || p > 48 {
		t.Errorf("wired P50=%.0f, want ~40", p)
	}
	if p := s.Wireless.P50(); p < 8 || p > 12 {
		t.Errorf("wireless P50=%.0f, want ~8", p)
	}
	var out strings.Builder
	s.Print(&out)
	if !strings.Contains(out.String(), "wired") || !strings.Contains(out.String(), "wireless") ||
		!strings.Contains(out.String(), "p99") {
		t.Fatalf("summary table missing rows:\n%s", out.String())
	}
}

func TestWritePerfettoValidJSON(t *testing.T) {
	var events []Event
	events = append(events, spanPair(1, 1, 10, 30, ClassWiredLoad, 0x80)...)
	events = append(events,
		Event{Cycle: 12, Kind: EvMsgSend, Node: 1, Other: 4, Line: 0x80, A: 1, B: 2},
		Event{Cycle: 15, Kind: EvToneRaise, Node: NoNode, Other: NoNode, Line: NoLine, A: 1},
	)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name != "wired-load" || e.Ts != 10 || e.Dur != 20 || e.Tid != 2 {
				t.Errorf("span event %+v", e)
			}
		case "i":
			instants++
			if e.Name == "tone-raise" && e.Tid != 0 {
				t.Errorf("chip-global event must land on tid 0, got %+v", e)
			}
		case "M":
			meta++
		}
	}
	if spans != 1 || instants != 2 || meta < 3 {
		t.Fatalf("spans=%d instants=%d meta=%d, want 1/2/>=3", spans, instants, meta)
	}
}

func TestWritePerfettoDeterministic(t *testing.T) {
	var events []Event
	for i := uint64(0); i < 20; i++ {
		node := int32(i % 4)
		events = append(events, spanPair(node, i+1, i, i+7, Class(i%uint64(classCount)), addrspace.Line(i))...)
		events = append(events, Event{Cycle: i, Kind: EvMsgRecv, Node: node, Other: (node + 1) % 4, Line: addrspace.Line(i)})
	}
	var a, b bytes.Buffer
	if err := WritePerfetto(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WritePerfetto must be byte-deterministic for the same capture")
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewRingSink(4), NewRingSink(4)
	Tee{a, b}.Emit(ev(1, EvJam, 0))
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("Tee must forward to every sink")
	}
}

func TestLatencyBinsStrictlyIncreasing(t *testing.T) {
	edges := LatencyBins()
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not strictly increasing at %d: %d <= %d", i, edges[i], edges[i-1])
		}
	}
	NewLatencyHistogram() // must not panic
}
