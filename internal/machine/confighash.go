// Canonical configuration encoding. The experiment runner
// (internal/exp) keys its result memo and persistent cache by a
// deterministic hash over this encoding; two processes — or two
// releases — that build the same Config must derive the same key, and
// any change to a semantically meaningful field must change it. That rules out
// reflection- or JSON-based hashing (field tags, float formatting and
// struct evolution would all shift bytes silently), so the encoder
// below names every field explicitly. TestConfigCanonicalCoversAllFields
// walks the Config type with reflection and fails the build when a new
// field is added without either a canon.field call or an entry in
// canonicalExcludedFields — a cache key can never silently alias two
// configurations that differ in a field the encoder forgot.
package machine

import (
	"strconv"
	"strings"
)

// canonicalExcludedFields are the Config field paths deliberately NOT
// part of the canonical encoding: runtime observability hooks that are
// proven (internal/obs golden-fingerprint tests) not to perturb
// results, so two runs differing only in attached sinks are the same
// cached run. Everything else must be encoded.
//
//lint:deterministic constant exclusion table, never written after initialization
var canonicalExcludedFields = map[string]string{
	"Trace":      "observer sink; tracing does not perturb results (DESIGN.md §11)",
	"Core.Trace": "observer sink on the core config",
}

// canon accumulates "path=value" lines and remembers which field paths
// were consumed, for the coverage guard test.
type canon struct {
	b     strings.Builder
	paths []string
}

func (c *canon) field(path, value string) {
	c.paths = append(c.paths, path)
	c.b.WriteString(path)
	c.b.WriteByte('=')
	c.b.WriteString(value)
	c.b.WriteByte('\n')
}

func itoa(v int) string     { return strconv.Itoa(v) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func btoa(v bool) string    { return strconv.FormatBool(v) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// appendCanonical writes every hashed field of the (already filled)
// config. Field paths mirror the Go field names so the guard test can
// match them against reflection.
func appendCanonical(e *canon, c *Config) {
	e.field("Nodes", itoa(c.Nodes))
	e.field("MeshW", itoa(c.MeshW))
	e.field("MeshH", itoa(c.MeshH))
	e.field("Protocol", itoa(int(c.Protocol)))

	e.field("Core.IssueWidth", itoa(c.Core.IssueWidth))
	e.field("Core.ROBSize", itoa(c.Core.ROBSize))
	e.field("Core.LoadQueue", itoa(c.Core.LoadQueue))
	e.field("Core.WriteBuffer", itoa(c.Core.WriteBuffer))

	e.field("L1SizeBytes", itoa(c.L1SizeBytes))
	e.field("L1Ways", itoa(c.L1Ways))
	e.field("L1Latency", utoa(c.L1Latency))
	e.field("UpdateCountMax", itoa(c.UpdateCountMax))

	e.field("LLCEntriesPerSlice", itoa(c.LLCEntriesPerSlice))
	e.field("LLCLatency", utoa(c.LLCLatency))
	e.field("MaxPointers", itoa(c.MaxPointers))
	e.field("MaxWiredSharers", itoa(c.MaxWiredSharers))
	e.field("DirScheme", itoa(int(c.DirScheme)))
	e.field("CoarseRegion", itoa(c.CoarseRegion))
	e.field("MAC", itoa(int(c.MAC)))
	e.field("MessageJitter", itoa(c.MessageJitter))

	e.field("MemControllers", itoa(c.MemControllers))
	e.field("MemLatency", utoa(c.MemLatency))
	e.field("MemServiceInterval", utoa(c.MemServiceInterval))

	e.field("RetryDelay", utoa(c.RetryDelay))
	e.field("Seed", utoa(c.Seed))
	e.field("MaxCycles", utoa(c.MaxCycles))

	e.field("Fault.Seed", utoa(c.Fault.Seed))
	e.field("Fault.WirelessBER", ftoa(c.Fault.WirelessBER))
	e.field("Fault.LinkStallPct", ftoa(c.Fault.LinkStallPct))
	e.field("Fault.LinkStallCycles", utoa(c.Fault.LinkStallCycles))
	e.field("Fault.LinkDropPct", ftoa(c.Fault.LinkDropPct))
	e.field("Fault.LinkDropCycles", utoa(c.Fault.LinkDropCycles))
	links := make([]string, len(c.Fault.Links))
	for i, l := range c.Fault.Links {
		links[i] = l.String()
	}
	e.field("Fault.Links", strings.Join(links, ","))
	e.field("Fault.DirDelayPct", ftoa(c.Fault.DirDelayPct))
	e.field("Fault.DirDelayCycles", utoa(c.Fault.DirDelayCycles))

	e.field("TxnAgeLimit", utoa(c.TxnAgeLimit))
	e.field("NoFastForward", btoa(c.NoFastForward))
	e.field("EnableChecker", btoa(c.EnableChecker))
}

// Normalized returns the configuration with every defaulted field
// filled in, exactly as NewSystem would resolve it. Hashing always
// operates on the normalized form, so DefaultConfig(64, p) and its
// filled equivalent are the same cached machine.
func (c Config) Normalized() (Config, error) {
	if err := c.fill(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// CanonicalString renders the normalized configuration as one
// "field=value" line per hashed field, in fixed order. It is the hash
// preimage and a human-readable description of what keys a cache
// entry.
func (c Config) CanonicalString() (string, error) {
	n, err := c.Normalized()
	if err != nil {
		return "", err
	}
	var e canon
	appendCanonical(&e, &n)
	return e.b.String(), nil
}

// canonicalFieldPaths returns every field path the canonical encoder
// consumes, for the reflection coverage guard.
func canonicalFieldPaths() []string {
	var e canon
	var c Config
	appendCanonical(&e, &c)
	return e.paths
}
