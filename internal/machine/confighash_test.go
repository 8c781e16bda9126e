package machine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
)

// leafPaths walks a struct type and returns the dotted path of every
// leaf field: basic kinds recurse through nested structs, while
// slices, maps, interfaces, pointers and funcs stop at the field (the
// encoder must handle them as one unit or exclude them).
func leafPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := f.Name
		if prefix != "" {
			path = prefix + "." + f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafPaths(f.Type, path)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// TestConfigCanonicalCoversAllFields is the cache-key aliasing guard:
// every field of machine.Config (recursively, including cpu.Config and
// fault.Config) must either be consumed by the canonical encoder or be
// named in canonicalExcludedFields with a justification. Adding a
// Config field without updating appendCanonical fails here — the
// persistent run cache can never silently treat two different machines
// as the same entry.
func TestConfigCanonicalCoversAllFields(t *testing.T) {
	want := leafPaths(reflect.TypeOf(Config{}), "")
	covered := map[string]bool{}
	for _, p := range canonicalFieldPaths() {
		covered[p] = true
	}
	for _, p := range want {
		if covered[p] {
			delete(covered, p)
			continue
		}
		if _, ok := canonicalExcludedFields[p]; ok {
			continue
		}
		t.Errorf("Config field %q is neither canonically hashed nor excluded: add it to appendCanonical (or, for a proven-inert observer hook, to canonicalExcludedFields)", p)
	}
	// The reverse direction: the encoder and exclusion list must not
	// name fields that no longer exist.
	wantSet := map[string]bool{}
	for _, p := range want {
		wantSet[p] = true
	}
	for p := range covered {
		if !wantSet[p] {
			t.Errorf("canonical encoder hashes %q, which is not a Config field", p)
		}
	}
	for p := range canonicalExcludedFields {
		if !wantSet[p] {
			t.Errorf("canonicalExcludedFields names %q, which is not a Config field", p)
		}
	}
}

// canonical is CanonicalString for configurations known to be valid.
func canonical(t *testing.T, c Config) string {
	t.Helper()
	s, err := c.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConfigHashNormalizes: configurations that describe the same
// machine share a canonical string, and so a result key.
func TestConfigHashNormalizes(t *testing.T) {
	sparse := Config{Nodes: 16, Protocol: coherence.WiDir}
	filled, err := sparse.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a, b Config
	}{
		{"sparse vs its normalized form", sparse, filled},
		{"sparse vs DefaultConfig", sparse, DefaultConfig(16, coherence.WiDir)},
	} {
		if a, b := canonical(t, tc.a), canonical(t, tc.b); a != b {
			t.Errorf("%s: canonical strings differ:\n%s\nvs\n%s", tc.name, a, b)
		}
	}
}

func TestConfigHashSeparates(t *testing.T) {
	base := canonical(t, DefaultConfig(64, coherence.WiDir))

	mutations := []func(*Config){
		func(c *Config) { c.Protocol = coherence.Baseline },
		func(c *Config) { c.Nodes = 16 },
		func(c *Config) { c.MaxWiredSharers = 5; c.MaxPointers = 5 },
		func(c *Config) { c.UpdateCountMax = 7 },
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.Fault.WirelessBER = 0.25 },
		func(c *Config) { c.Fault.Links = []fault.Link{{Src: 0, Dst: 1}} },
		func(c *Config) { c.EnableChecker = true },
	}
	for i, mut := range mutations {
		c := DefaultConfig(64, coherence.WiDir)
		mut(&c)
		if canonical(t, c) == base {
			t.Errorf("mutation %d did not change the canonical string", i)
		}
	}
}

func TestConfigHashIgnoresObserverHooks(t *testing.T) {
	a := DefaultConfig(16, coherence.WiDir)
	b := a
	b.LineLog = nil // observers excluded; attach nothing distinguishable
	if canonical(t, a) != canonical(t, b) {
		t.Fatal("identical configs encode differently")
	}
}

func TestCanonicalStringIsLinePerField(t *testing.T) {
	s, err := DefaultConfig(16, coherence.Baseline).CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != len(canonicalFieldPaths()) {
		t.Fatalf("%d lines for %d fields", len(lines), len(canonicalFieldPaths()))
	}
	for _, l := range lines {
		if !strings.Contains(l, "=") {
			t.Fatalf("malformed canonical line %q", l)
		}
	}
	if !strings.Contains(s, "Nodes=16\n") || !strings.Contains(s, "Protocol=0\n") {
		t.Fatalf("canonical string missing expected lines:\n%s", s)
	}
}
