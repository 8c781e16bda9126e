package exp

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// leafPaths returns the dotted path of every leaf field of a struct
// type, exported or not: nested structs recurse, everything else
// (basic kinds, slices, interfaces) is one leaf.
func leafPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafPaths(f.Type, path+".")...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// jsonPaths returns the dotted path of every leaf of a decoded JSON
// object: nested objects recurse, every other value is one leaf.
func jsonPaths(m map[string]any, prefix string, out map[string]bool) {
	for k, v := range m {
		if sub, ok := v.(map[string]any); ok {
			jsonPaths(sub, prefix+k+".", out)
			continue
		}
		out[prefix+k] = true
	}
}

// TestKeyOmitsOnlyObserverHooks is the aliasing guard of the result
// key, which hashes the JSON encoding of the run's Config and Profile:
// every field must reach that encoding except the observer hooks
// (Trace, Core.Trace) that the runner refuses. A new field that JSON
// would skip (unexported, or tagged "-") fails here, so two runs that
// could differ in it can never share a cached result.
func TestKeyOmitsOnlyObserverHooks(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string // the fields JSON may skip
	}{
		{machine.Config{}, []string{"Core.Trace", "Trace"}},
		{workload.Profile{}, nil},
	} {
		b, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		encoded := map[string]bool{}
		jsonPaths(m, "", encoded)
		var omitted []string
		for _, p := range leafPaths(reflect.TypeOf(tc.v), "") {
			if !encoded[p] {
				omitted = append(omitted, p)
			}
		}
		sort.Strings(omitted)
		if !reflect.DeepEqual(omitted, tc.want) {
			t.Errorf("%T: JSON omits %q, want exactly %q: a field left out of the encoding is left out of the result key", tc.v, omitted, tc.want)
		}
	}
}

// keyRun is one simulation's identity, as simKey takes it.
type keyRun struct {
	cfg  machine.Config
	app  workload.Profile
	seed uint64
}

func testKeyRun(t *testing.T) keyRun {
	t.Helper()
	prof, ok := workload.ByName("water-spa")
	if !ok {
		t.Fatal("water-spa profile missing")
	}
	return keyRun{machine.DefaultConfig(16, coherence.WiDir), prof.Scale(0.05), 7}
}

func (k keyRun) key(t *testing.T) string {
	t.Helper()
	h, err := simKey(k.cfg, k.app, k.seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestKeyDeterministic: the same run always hashes to the same key.
func TestKeyDeterministic(t *testing.T) {
	k := testKeyRun(t)
	a := k.key(t)
	if b := k.key(t); a != b {
		t.Fatalf("same run, different keys: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not 64 hex chars", a)
	}
}

// TestKeySeparates: every component of the run identity must move the
// hash, including a single machine parameter of a custom config.
func TestKeySeparates(t *testing.T) {
	base := testKeyRun(t)
	baseKey := base.key(t)
	mutations := map[string]func(k keyRun) keyRun{
		"protocol": func(k keyRun) keyRun { k.cfg = machine.DefaultConfig(16, coherence.Baseline); return k },
		"cores":    func(k keyRun) keyRun { k.cfg = machine.DefaultConfig(32, coherence.WiDir); return k },
		"seed":     func(k keyRun) keyRun { k.seed++; return k },
		"maxwired": func(k keyRun) keyRun { k.cfg.MaxWiredSharers = 2; return k },
		"profile-scale": func(k keyRun) keyRun {
			prof, _ := workload.ByName("water-spa")
			k.app = prof.Scale(0.1)
			return k
		},
		"app": func(k keyRun) keyRun {
			prof, ok := workload.ByName("radiosity")
			if !ok {
				t.Fatal("radiosity profile missing")
			}
			k.app = prof.Scale(0.05)
			return k
		},
	}
	for name, mut := range mutations {
		if mut(base).key(t) == baseKey {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestConfigHashSeparates: each machine parameter, fault setting and
// checker switch of the Config moves the key on its own.
func TestConfigHashSeparates(t *testing.T) {
	base := testKeyRun(t)
	baseKey := base.key(t)
	mutations := map[string]func(c *machine.Config){
		"protocol":       func(c *machine.Config) { c.Protocol = coherence.Baseline },
		"nodes":          func(c *machine.Config) { c.Nodes = 64 },
		"pointers":       func(c *machine.Config) { c.MaxWiredSharers = 5; c.MaxPointers = 5 },
		"updatecountmax": func(c *machine.Config) { c.UpdateCountMax = 7 },
		"machine-seed":   func(c *machine.Config) { c.Seed = 2 },
		"wireless-ber":   func(c *machine.Config) { c.Fault.WirelessBER = 0.25 },
		"link-stall":     func(c *machine.Config) { c.Fault.LinkStallPct = 0.1 },
		"checker":        func(c *machine.Config) { c.EnableChecker = true },
	}
	for name, mut := range mutations {
		k := base
		mut(&k.cfg)
		if k.key(t) == baseKey {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	// Fault links need a link rate to be valid, so they are separated
	// from a base that has one.
	stall := base
	stall.cfg.Fault.LinkStallPct = 0.1
	links := stall
	links.cfg.Fault.Links = []fault.Link{{Src: 0, Dst: 1}}
	if links.key(t) == stall.key(t) {
		t.Error("changing fault links did not change the key")
	}
}

// TestConfigHashNormalizes: configurations that describe the same
// machine share a result key.
func TestConfigHashNormalizes(t *testing.T) {
	k := testKeyRun(t)
	sparse := machine.Config{Nodes: 16, Protocol: coherence.WiDir}
	filled, err := sparse.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a, b machine.Config
	}{
		{"sparse vs its normalized form", sparse, filled},
		{"sparse vs DefaultConfig", sparse, machine.DefaultConfig(16, coherence.WiDir)},
		{"empty vs nil fault links", machine.Config{Nodes: 16, Protocol: coherence.WiDir, Fault: fault.Config{Links: []fault.Link{}}}, sparse},
	} {
		a, b := k, k
		a.cfg, b.cfg = tc.a, tc.b
		if a.key(t) != b.key(t) {
			t.Errorf("%s: keys differ", tc.name)
		}
	}
}

// TestConfigHashIgnoresObserverHooks: attaching trace sinks leaves the
// key alone (the runner refuses such configs, so they never share an
// entry with a plain run).
func TestConfigHashIgnoresObserverHooks(t *testing.T) {
	a := testKeyRun(t)
	b := a
	b.cfg.Trace = obs.NewRingSink(1)
	b.cfg.Core.Trace = b.cfg.Trace
	if a.key(t) != b.key(t) {
		t.Fatal("attaching observer sinks changed the key")
	}
}
