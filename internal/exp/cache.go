package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/workload"
)

// SchemaVersion is the on-disk cache schema. It participates in both
// the key derivation and the directory layout (<dir>/v<N>/...), so a
// schema bump orphans old entries instead of misreading them: a new
// binary simply never looks inside v<N-1>.
const SchemaVersion = 3

// simKey is the content address of one simulation: the hex SHA-256 of
// the JSON encoding of the schema version, the normalized machine
// config, the workload profile and the workload seed. The runner's
// in-process memo and the disk cache share this one identity. JSON
// names every exported field, so any field that can change a result
// changes the key; the only fields it leaves out are the observer
// hooks tagged `json:"-"` (Config.Trace, Core.Trace), which the runner
// refuses (errObserved). TestKeyOmitsOnlyObserverHooks guards that.
func simKey(cfg machine.Config, app workload.Profile, seed uint64) (string, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Schema  int
		Config  machine.Config
		Profile workload.Profile
		Seed    uint64
	}{SchemaVersion, norm, app, seed})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// entryFile is the content of one entry's file. Result holds
// the canonical JSON encoding of the machine.Result, whose marshalers
// avoid map iteration, so a decoded entry re-encodes to the same bytes.
type entryFile struct {
	Schema int             `json:"schema"`
	Result json.RawMessage `json:"result"`
}

// CacheStats counts cache traffic. Corrupt counts entries that failed
// to decode and were evicted; each such read falls back to
// re-simulation, so Corrupt > 0 is survivable but worth a look.
// TmpReaped counts crash-orphaned temp files removed at open.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Fills     uint64
	Corrupt   uint64
	TmpReaped uint64
}

// String renders the counters in the verbose-output form.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d fills=%d corrupt=%d tmp-reaped=%d",
		s.Hits, s.Misses, s.Fills, s.Corrupt, s.TmpReaped)
}

// Cache is a content-addressed, disk-backed store of simulation
// results, one file per run: <dir>/v<SchemaVersion>/<hash>.json.
// Entries are immutable once written: a Put writes the whole entry to
// a temp file and publishes it with a single rename, so readers never
// observe a partial entry and concurrent writers of the same key leave
// exactly one complete copy (the last rename wins, and all wrote
// identical content, since the key is a content address over
// everything that determines the run). The cache never collects
// garbage: to reclaim space, delete the directory.
type Cache struct {
	root string // <dir>/v<SchemaVersion>

	hits      atomic.Uint64
	misses    atomic.Uint64
	fills     atomic.Uint64
	corrupt   atomic.Uint64
	tmpReaped atomic.Uint64
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
// Temp files orphaned by a crash between write and rename (".tmp-*")
// are reaped here: they were never published, so nothing ever read
// them, and leaving them would leak disk forever.
func OpenCache(dir string) (*Cache, error) {
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("exp: open cache: %w", err)
	}
	c := &Cache{root: root}
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			if os.RemoveAll(filepath.Join(root, e.Name())) == nil {
				c.tmpReaped.Add(1)
			}
		}
	}
	return c, nil
}

// Dir returns the versioned cache root.
func (c *Cache) Dir() string { return c.root }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Fills:     c.fills.Load(),
		Corrupt:   c.corrupt.Load(),
		TmpReaped: c.tmpReaped.Load(),
	}
}

// fileFor is the path of a simKey hash's entry.
func (c *Cache) fileFor(hash string) string {
	return filepath.Join(c.root, hash+".json")
}

// Get loads the cached result for a simKey hash. A missing entry is a
// plain miss. An entry that exists but cannot be read or decoded (a
// truncated write, bit rot, a hand-edited file) is counted as Corrupt,
// evicted, and reported as a miss, so the caller falls back to
// re-simulation and the next Put heals the entry.
func (c *Cache) Get(hash string) (*machine.Result, bool) {
	path := c.fileFor(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.evict(path)
		}
		c.misses.Add(1)
		return nil, false
	}
	var e entryFile
	var res machine.Result
	if json.Unmarshal(data, &e) != nil || e.Schema != SchemaVersion || len(e.Result) == 0 ||
		json.Unmarshal(e.Result, &res) != nil {
		c.evict(path)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return &res, true
}

// evict removes a corrupt entry so the next Put can heal it.
func (c *Cache) evict(path string) {
	c.corrupt.Add(1)
	os.RemoveAll(path)
}

// Put stores the result under a simKey hash. The entry is written and
// fsynced to a temp file in the cache root (same filesystem, so the
// rename is atomic) and published with one rename, then the root is
// fsynced so the publish survives power loss (a rename alone is only
// atomic, not durable: the metadata can still sit in the page cache
// when the power goes).
func (c *Cache) Put(hash string, res *machine.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("exp: encode result: %w", err)
	}
	// Compact on purpose: MarshalIndent would re-indent the embedded
	// RawMessage and break byte-identity with the result encoding.
	entry, err := json.Marshal(entryFile{Schema: SchemaVersion, Result: raw})
	if err != nil {
		return fmt.Errorf("exp: encode entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.root, ".tmp-"+hash[:8]+"-")
	if err != nil {
		return fmt.Errorf("exp: stage entry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeSync(tmp, append(entry, '\n')); err != nil {
		return fmt.Errorf("exp: stage entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.fileFor(hash)); err != nil {
		return fmt.Errorf("exp: publish entry: %w", err)
	}
	syncDir(c.root)
	c.fills.Add(1)
	return nil
}

// writeSync writes data to f and fsyncs before closing, so a published
// entry's content is on stable storage, not just in the page cache.
func writeSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a just-renamed file in it durable
// against power loss. Best-effort: not every filesystem supports
// directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
