package fault

import (
	"reflect"
	"strings"
	"testing"
)

// drawAll consumes a fixed draw schedule and fingerprints it.
func drawAll(in *Injector) string {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		if in.CorruptTx() {
			b.WriteByte('C')
		}
		d := in.LinkDelay(i%4, (i+1)%4)
		b.WriteByte(byte('0' + d%10))
		if in.DirDelay() > 0 {
			b.WriteByte('D')
		}
	}
	return b.String()
}

func TestZeroConfigDisabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if in := New(Config{}); in != nil {
		t.Fatalf("New(zero) = %v, want nil", in)
	}
	// Rates without cycle budgets still enable (cycles take defaults
	// in New).
	if !(Config{WirelessBER: 0.5}).Enabled() {
		t.Fatal("BER-only Config should be enabled")
	}
	if in := New(Config{LinkStallPct: 0.5}); in == nil || in.Config().LinkStallCycles == 0 {
		t.Fatal("stall-rate-only Config should enable with default cycles")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{
		Seed: 7, WirelessBER: 0.2,
		LinkStallPct: 0.1, LinkDropPct: 0.05,
		DirDelayPct: 0.15,
	}
	a, b := drawAll(New(cfg)), drawAll(New(cfg))
	if a != b {
		t.Fatal("same (Config, seed) produced different fault schedules")
	}
	other := cfg
	other.Seed = 8
	if drawAll(New(other)) == a {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestStreamsIndependent asserts the per-class stream split: enabling
// the directory-delay class must not shift the wireless draws.
func TestStreamsIndependent(t *testing.T) {
	base := Config{Seed: 11, WirelessBER: 0.3}
	with := base
	with.DirDelayPct = 0.5

	a, b := New(base), New(with)
	for i := 0; i < 2000; i++ {
		if a.CorruptTx() != b.CorruptTx() {
			t.Fatalf("wireless draw %d diverged when the dir class was enabled", i)
		}
		b.DirDelay() // consume the other stream in between
	}
}

func TestLinkSetFiltersDraws(t *testing.T) {
	cfg := Config{Seed: 3, LinkStallPct: 1.0, Links: []Link{{Src: 0, Dst: 1}}}
	in := New(cfg)
	if d := in.LinkDelay(2, 3); d != 0 {
		t.Fatalf("unafflicted link delayed by %d", d)
	}
	if d := in.LinkDelay(0, 1); d == 0 {
		t.Fatal("afflicted link with 100% stall rate not delayed")
	}
	if got := in.Stats.LinkStalls.Value(); got != 1 {
		t.Fatalf("LinkStalls = %d, want 1", got)
	}

	// Unafflicted traffic must not consume draws: interleaving it
	// cannot change the afflicted link's schedule.
	x, y := New(cfg), New(cfg)
	for i := 0; i < 200; i++ {
		y.LinkDelay(5, 6) // no draw consumed
		if x.LinkDelay(0, 1) != y.LinkDelay(0, 1) {
			t.Fatalf("draw %d: unafflicted traffic shifted the afflicted schedule", i)
		}
	}
}

func TestCorruptionRateRoughlyBER(t *testing.T) {
	in := New(Config{Seed: 5, WirelessBER: 0.25})
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if in.CorruptTx() {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("corruption rate %.3f, want ~0.25", got)
	}
	if in.Stats.WirelessCorruptions.Value() != uint64(hits) {
		t.Fatal("corruption counter disagrees with draws")
	}
}

func TestParseLinks(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Link // nil with ok=false: must be rejected
		ok   bool
	}{
		{" 0-1, 12-3 ", []Link{{0, 1}, {12, 3}}, true},
		{"", nil, true},
		{"  ", nil, true},
		{"7-7", []Link{{7, 7}}, true},
		{"007-010", []Link{{7, 10}}, true},
		{"x", nil, false},
		{"1:2", nil, false},
		{"1-", nil, false},
		{"-1-2", nil, false},
		{"0-1junk", nil, false},
		{"0-1-2", nil, false},
		{"0 -1", nil, false},
		{"+0-1", nil, false},
		{"0-1,", nil, false},
		{"0-1,,2-3", nil, false},
		{"0-99999999999999999999", nil, false},
	} {
		got, err := ParseLinks(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseLinks(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseLinks(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// FuzzParseLinks: the parser never panics, and an accepted list
// rendered back through Link.String parses to the same list.
func FuzzParseLinks(f *testing.F) {
	for _, s := range []string{"0-1", "", "-1-2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ls, err := ParseLinks(s)
		if err != nil {
			return
		}
		parts := make([]string, len(ls))
		for i, l := range ls {
			if l.Src < 0 || l.Dst < 0 {
				t.Fatalf("ParseLinks(%q) accepted negative link %v", s, l)
			}
			parts[i] = l.String()
		}
		back, err := ParseLinks(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(back, ls) {
			t.Fatalf("round trip of %q: %v -> %q -> %v, %v", s, ls, strings.Join(parts, ","), back, err)
		}
	})
}

func TestDescribe(t *testing.T) {
	in := New(Config{WirelessBER: 1e-3, LinkStallPct: 0.1, Links: []Link{{1, 0}}})
	d := in.Describe()
	for _, want := range []string{"BER 0.001", "link stall", "links 1-0"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
}
