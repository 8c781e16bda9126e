package protomodel

import (
	"bufio"
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed spec/*.widirspec
var embeddedSpec embed.FS

// SpecRow is one specified transition arm.
type SpecRow struct {
	From  string // state name or "*"
	Event string
	Next  string // state name or "error"
	Pos   string // spec file:line, for diagnostics
}

// Spec is the machine-readable protocol specification: the set of
// transition arms each machine is required (and allowed) to implement.
type Spec struct {
	Machines map[string][]SpecRow
}

// EmbeddedSpec parses the spec compiled into the binary from
// internal/protomodel/spec/.
func EmbeddedSpec() (*Spec, error) {
	return loadSpecFS(embeddedSpec, "spec")
}

// LoadSpecDir parses every *.widirspec file in dir.
func LoadSpecDir(dir string) (*Spec, error) {
	return loadSpecFS(os.DirFS(dir), ".")
}

func loadSpecFS(fsys fs.FS, root string) (*Spec, error) {
	entries, err := fs.ReadDir(fsys, root)
	if err != nil {
		return nil, fmt.Errorf("reading spec dir: %w", err)
	}
	spec := &Spec{Machines: map[string][]SpecRow{}}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".widirspec") {
			continue
		}
		f, err := fsys.Open(filepath.ToSlash(filepath.Join(root, e.Name())))
		if err != nil {
			return nil, err
		}
		err = parseSpec(spec, e.Name(), f)
		f.Close()
		if err != nil {
			return nil, err
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("no *.widirspec files found")
	}
	return spec, nil
}

// parseSpec reads one spec file. Format, line-oriented:
//
//	# comment
//	machine <name>
//	<from> <event> -> <next>
//
// A `machine` line opens a section; transition lines belong to the
// most recent section. Blank lines and #-comments are ignored.
func parseSpec(spec *Spec, name string, r fs.File) error {
	sc := bufio.NewScanner(r)
	machine := ""
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "machine" {
			if len(fields) != 2 {
				return fmt.Errorf("%s:%d: malformed machine line %q", name, lineno, line)
			}
			machine = fields[1]
			if _, dup := spec.Machines[machine]; !dup {
				spec.Machines[machine] = nil
			}
			continue
		}
		if machine == "" {
			return fmt.Errorf("%s:%d: transition before any machine line", name, lineno)
		}
		if len(fields) != 4 || fields[2] != "->" {
			return fmt.Errorf("%s:%d: malformed transition %q (want: <from> <event> -> <next>)", name, lineno, line)
		}
		spec.Machines[machine] = append(spec.Machines[machine], SpecRow{
			From: fields[0], Event: fields[1], Next: fields[3],
			Pos: fmt.Sprintf("%s:%d", name, lineno),
		})
	}
	return sc.Err()
}

// Finding is one conformance divergence between implementation and
// spec.
type Finding struct {
	Kind    string // "unspecified", "unimplemented", "uncovered"
	Machine string
	Detail  string
	Pos     string // impl or spec provenance
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s", f.Pos, f.Machine, f.Kind, f.Detail)
}

// Check diffs the extracted model against the spec and reports:
//
//   - unspecified: a transition the implementation performs that the
//     spec does not allow;
//   - unimplemented: a spec transition with no implementing code;
//   - uncovered: a (stable state, protocol event) pair the
//     implementation does not handle at all — a non-exhaustive arm in
//     one of the controller switches.
func Check(model *Model, spec *Spec) []Finding {
	var out []Finding
	for _, mc := range model.Machines {
		rows, ok := spec.Machines[mc.Name]
		if !ok {
			out = append(out, Finding{Kind: "unimplemented", Machine: mc.Name,
				Detail: "machine missing from spec", Pos: "spec"})
			continue
		}
		specSet := map[string]SpecRow{}
		for _, r := range rows {
			specSet[r.From+"\x00"+r.Event+"\x00"+r.Next] = r
		}

		// (a) implemented but not specified.
		for _, t := range mc.Transitions {
			if _, ok := specSet[t.From+"\x00"+t.Event+"\x00"+t.Next]; !ok {
				out = append(out, Finding{Kind: "unspecified", Machine: mc.Name,
					Detail: fmt.Sprintf("%s %s -> %s", t.From, t.Event, t.Next), Pos: t.Pos})
			}
		}

		// (b) specified but not implemented.
		implSet := map[string]bool{}
		for _, t := range mc.Transitions {
			implSet[t.From+"\x00"+t.Event+"\x00"+t.Next] = true
		}
		for _, r := range rows {
			if !implSet[r.From+"\x00"+r.Event+"\x00"+r.Next] {
				out = append(out, Finding{Kind: "unimplemented", Machine: mc.Name,
					Detail: fmt.Sprintf("%s %s -> %s", r.From, r.Event, r.Next), Pos: r.Pos})
			}
		}

		// (c) non-exhaustive handling: every stable state must handle
		// every wired message-type event somehow — a transition, a "*"
		// arm, an error arm, or a proven no-op pair.
		for _, ev := range mc.WireEvents {
			for _, st := range mc.Stable {
				if !mc.Covered(st, ev) {
					out = append(out, Finding{Kind: "uncovered", Machine: mc.Name,
						Detail: fmt.Sprintf("state %s does not handle event %s", st, ev),
						Pos:    "impl"})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.Pos < b.Pos
	})
	return out
}
