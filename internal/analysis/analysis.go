// Package analysis is the simulator's static determinism auditor. It
// implements a small, stdlib-only analysis engine (go/parser + go/types
// — no external dependencies) plus the eight rules that make the
// repository's determinism contract machine-checkable:
//
//	mapiter     — no range over a map in the deterministic sim packages
//	walltime    — no time.Now/time.Since outside cmd/ progress reporting
//	globalrand  — no math/rand global-source functions anywhere
//	floatorder  — no float accumulation over map- or channel-ordered data
//	gonosync    — no go statements outside internal/exp's runner
//	switchcases — no enum switch missing members without a default
//	protopanic  — no bare panic in internal/coherence (use ProtocolError)
//	globalmut   — no mutable package-level state in sim packages
//
// The cmd/widir-lint driver runs every analyzer over ./... and exits
// nonzero on any finding, so `make check` and CI gate on the contract.
// A site that is deterministic for reasons the analyzers cannot prove
// (for example a map scan whose result is order-independent, or a
// constant name table held in a package-level var) carries a
// `//lint:deterministic <why>` comment on the flagged line or the line
// above it; DESIGN.md §10 documents when the escape hatch is
// acceptable. The engine keeps the hatch honest: a justification
// comment that suppresses nothing is reported as "staleignore", so an
// escape cannot silently outlive its reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule    string         // rule ID, e.g. "mapiter"
	Pos     token.Position // file:line:col of the offending node
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Package is one loaded, type-checked package ready for analysis.
// Type-check errors do not abort loading: Info is filled for whatever
// resolved, and analyzers degrade to skipping nodes they cannot type.
type Package struct {
	Path  string // import path, e.g. "repro/internal/wireless"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check problems (for -debug output).
	TypeErrors []error
}

// Analyzer is one named rule. Run inspects the package and returns raw
// findings; the engine applies //lint:deterministic suppression.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// Analyzers is the full rule set in reporting order.
var Analyzers = []*Analyzer{
	MapIter,
	WallTime,
	GlobalRand,
	FloatOrder,
	GoNoSync,
	SwitchCases,
	ProtoPanic,
	GlobalMut,
}

// Justification is the escape-hatch comment marker. A finding is
// suppressed when a comment beginning with this marker sits on the
// finding's line or the line immediately above it.
const Justification = "//lint:deterministic"

// RunAll applies every analyzer to the package and returns the
// surviving findings sorted by position. A //lint:deterministic
// comment that suppressed nothing is itself reported (rule
// "staleignore"): an escape hatch whose justification no longer
// applies must be deleted, not left to mask the next real finding on
// its line.
func RunAll(p *Package) []Finding {
	var out []Finding
	justified := justifiedLines(p)
	used := map[lineKey]bool{}
	for _, a := range Analyzers {
		for _, f := range a.Run(p) {
			same := lineKey{f.Pos.Filename, f.Pos.Line}
			above := lineKey{f.Pos.Filename, f.Pos.Line - 1}
			if _, ok := justified[same]; ok {
				used[same] = true
				continue
			}
			if _, ok := justified[above]; ok {
				used[above] = true
				continue
			}
			out = append(out, f)
		}
	}
	for k, pos := range justified {
		if !used[k] {
			out = append(out, Finding{
				Rule: "staleignore",
				Pos:  pos,
				Message: fmt.Sprintf(
					"stale %s comment: no analyzer flags this line or the one below; delete the suppression",
					Justification),
			})
		}
	}
	SortFindings(out)
	return out
}

type lineKey struct {
	file string
	line int
}

// justifiedLines collects the lines carrying a //lint:deterministic
// comment, per file, mapped to the comment's own position so stale
// suppressions can be reported where they sit.
func justifiedLines(p *Package) map[lineKey]token.Position {
	out := map[lineKey]token.Position{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, Justification) {
					pos := p.Fset.Position(c.Pos())
					out[lineKey{pos.Filename, pos.Line}] = pos
				}
			}
		}
	}
	return out
}

// deterministicPkgs are the sim packages under the full determinism
// contract: their cycle-by-cycle behaviour and emitted statistics must
// be bit-identical across runs of the same seed.
var deterministicPkgs = []string{
	"engine", "machine", "coherence", "mesh", "wireless",
	"cache", "stats", "energy", "workload", "obs", "fault", "cpu",
}

// IsDeterministicPackage reports whether the import path names one of
// the sim packages under the mapiter/floatorder contract.
func IsDeterministicPackage(path string) bool {
	for _, p := range deterministicPkgs {
		if strings.HasSuffix(path, "internal/"+p) {
			return true
		}
	}
	return false
}

// IsCmdPackage reports whether the import path is a command under
// cmd/ — the only place wall-clock progress reporting is allowed.
func IsCmdPackage(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// IsGoroutineLicensed reports whether the package may spawn goroutines:
// internal/exp owns the one sanctioned simulation worker pool.
// Everything else, the simulator proper, is single-threaded by
// contract.
func IsGoroutineLicensed(path string) bool {
	return strings.HasSuffix(path, "internal/exp")
}

// pkgOf resolves the package an identifier qualifies, for selector
// expressions like time.Now: it returns the imported package path when
// the expression's X is a package name, else "".
func pkgOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isFloat reports whether t is a floating-point type (or named type
// with a floating-point underlying type).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
