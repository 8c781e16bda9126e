package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// tinyRun runs one tiny simulation once, shared across cache tests (the
// cache layer only needs a real Result to round-trip), and returns its
// key.
var tinyOnce struct {
	sync.Once
	key string
	res *machine.Result
}

func tinyRun(t *testing.T) (string, *machine.Result) {
	t.Helper()
	tinyOnce.Do(func() {
		prof, ok := workload.ByName("water-spa")
		if !ok {
			t.Fatal("water-spa profile missing")
		}
		cfg := machine.DefaultConfig(4, coherence.WiDir)
		app := prof.Scale(0.02)
		key, err := simKey(cfg, app, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate(cfg, app, 1)
		if err != nil {
			t.Fatalf("tiny sim: %v", err)
		}
		tinyOnce.key, tinyOnce.res = key, res
	})
	if tinyOnce.res == nil {
		t.Fatal("tiny sim failed in an earlier test")
	}
	return tinyOnce.key, tinyOnce.res
}

// entryCount counts the published entries on disk.
func entryCount(t *testing.T, c *Cache) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(c.Dir(), "*", "*", "entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestCacheRestartRoundTrip: a result put by one Cache instance is
// read back by a fresh instance over the same directory, i.e. the
// cache survives process death, and the decoded result re-encodes to
// the bytes of the original.
func TestCacheRestartRoundTrip(t *testing.T) {
	key, res := tinyRun(t)
	dir := t.TempDir()

	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, res); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new Cache over the same directory.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry lost across restart")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("decoded result differs from the original")
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	reRaw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(reRaw) != string(want) {
		t.Fatal("re-encoding the decoded result is not byte-identical: canonical encoding is unstable")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("restart read should count one hit, stats = %v", st)
	}
}

// TestCacheCorruptEntryFallsBack: truncated and garbage entries are
// detected, counted, evicted, and reported as misses (the caller
// re-simulates instead of serving junk), and a subsequent Put heals
// the entry.
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	key, res := tinyRun(t)
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o666)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte("not json at all"), 0o666)
		},
		"wrong-schema": func(path string) error {
			return os.WriteFile(path, []byte(`{"schema": 999, "result": {}}`), 0o666)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(key, res); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(filepath.Join(c.dirFor(key), "entry.json")); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("corrupt read should count corrupt=1 misses=1, stats = %v", st)
			}
			if _, err := os.Stat(c.dirFor(key)); !os.IsNotExist(err) {
				t.Fatal("corrupt entry was not evicted")
			}
			// The re-simulation path heals the entry.
			if err := c.Put(key, res); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); !ok {
				t.Fatal("healed entry still missing")
			}
		})
	}
}

// TestCacheConcurrentWriters: many goroutines putting the same key
// leave exactly one entry, no temp-dir litter, and a readable result.
func TestCacheConcurrentWriters(t *testing.T) {
	key, res := tinyRun(t)
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	wg.Add(writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Put(key, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if n := entryCount(t, c); n != 1 {
		t.Fatalf("%d entries after %d same-key writers, want exactly 1", n, writers)
	}
	// No staging litter left behind by rename losers.
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("staging dir leaked: %s", e.Name())
		}
	}
	if got, ok := c.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Fatal("entry unreadable after concurrent writes")
	}
}

// TestCacheMissingIsPlainMiss: an absent entry is a miss, not
// corruption.
func TestCacheMissingIsPlainMiss(t *testing.T) {
	key, _ := tinyRun(t)
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if st := c.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("want misses=1 corrupt=0, got %v", st)
	}
}

// TestCacheReapsCrashStaging simulates a process killed between
// staging an entry and the publishing rename: the orphaned .tmp-*
// directory must be reaped on the next open, or every crash leaks disk
// forever.
func TestCacheReapsCrashStaging(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The moment of death: the file written into the staging dir, the
	// rename never issued. This is what Put leaves behind when killed
	// between writeFileSync and os.Rename.
	stage := filepath.Join(c.Dir(), ".tmp-deadbeef-12345")
	if err := os.MkdirAll(stage, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "entry.json"), []byte(`{"schema":1}`), 0o666); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatal("crash-orphaned staging dir survived restart")
	}
	if got := c2.Stats().TmpReaped; got != 1 {
		t.Fatalf("TmpReaped = %d, want 1", got)
	}
}

// FuzzCacheGet feeds arbitrary bytes to Get as an entry's manifest.
// Get must never panic: it either reports a miss counted as corrupt,
// or returns a Result that re-encodes and decodes to the same value.
// The seed corpus holds a real entry and a truncated one.
func FuzzCacheGet(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	// One cache per fuzz process: each input overwrites the same entry,
	// which keeps an exec to a few file operations.
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	dir := c.dirFor(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "entry.json"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		res, ok := c.Get(key)
		if !ok {
			if st := c.Stats(); st.Misses != before.Misses+1 || st.Corrupt != before.Corrupt+1 {
				t.Fatalf("a rejected entry must count as one corrupt miss: %v -> %v", before, st)
			}
			return
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		var back machine.Result
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(&back, res) {
			t.Fatal("accepted entry changes value across a re-encode")
		}
	})
}
