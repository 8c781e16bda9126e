package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// GlobalMut: a sim package may not declare mutable package-level
// state. Pools, counters and xrand streams hidden in globals leak
// between the simulations one process runs side by side, so every
// package-level var in a sim-state package is a finding unless a
// `//lint:deterministic <why>` comment on its line or the line above
// records why it is safe (typically a constant table never written
// after initialization). Blank assertions (`var _ Iface = ...`) are
// ignored.
var GlobalMut = &Analyzer{
	Name: "globalmut",
	Doc:  "no mutable package-level state in sim packages",
	Run: func(p *Package) []Finding {
		if !IsSimStatePackage(p.Path) {
			return nil
		}
		var out []Finding
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						obj := p.Info.Defs[name]
						if obj == nil || obj.Parent() != p.Types.Scope() {
							continue
						}
						out = append(out, Finding{
							Rule: "globalmut", Pos: p.Fset.Position(name.Pos()),
							Message: fmt.Sprintf(
								"package-level var %s is mutable state shared by every simulation in the process; move it into a component or justify the declaration with `%s <why>`",
								name.Name, Justification),
						})
					}
				}
			}
		}
		return out
	},
}

// simStateExtra are sim-adjacent packages outside the determinism list
// that still hold tick-path state: the seeded RNG streams, the
// address-space mapper, and the free lists the tick path recycles
// records through.
var simStateExtra = []string{"xrand", "addrspace", "pool"}

// IsSimStatePackage reports whether the import path is under the
// globalmut contract: the deterministic sim packages plus
// xrand/addrspace/pool.
func IsSimStatePackage(path string) bool {
	if IsDeterministicPackage(path) {
		return true
	}
	for _, p := range simStateExtra {
		if strings.HasSuffix(path, "internal/"+p) {
			return true
		}
	}
	return false
}
