package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestProfileCanonicalCoversAllFields is the drift guard for the
// profile half of the result key: every field of workload.Profile must
// be written by Profile.CanonicalString. Add a field to Profile without
// teaching the encoder about it and this test names the omission;
// otherwise two workloads differing only in the new field would
// silently share a cached result.
func TestProfileCanonicalCoversAllFields(t *testing.T) {
	covered := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(workload.Profile{}.CanonicalString(), "\n"), "\n") {
		name, _, ok := strings.Cut(line, "=")
		if !ok {
			t.Fatalf("canonical line %q is not field=value", line)
		}
		if covered[name] {
			t.Errorf("Profile.CanonicalString encodes %s twice", name)
		}
		covered[name] = true
	}
	typ := reflect.TypeOf(workload.Profile{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !covered[name] {
			t.Errorf("workload.Profile.%s is not in the canonical profile encoding; add it to Profile.CanonicalString so it participates in the result key", name)
		}
		delete(covered, name)
	}
	for name := range covered {
		t.Errorf("Profile.CanonicalString encodes %q which is not a workload.Profile field", name)
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
