package analysis

import (
	"fmt"
	"go/ast"
)

// WallTime flags reads of the wall clock outside cmd/. The simulator's
// notion of time is the cycle counter; a time.Now that leaks into sim
// state, statistics, or control flow makes results depend on host
// scheduling. Progress reporting in the cmd/ front-ends is the one
// legitimate consumer. internal/exp stays covered: the experiment
// layer computes and caches results, so wall time must not reach it.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "wall-clock read (time.Now/time.Since) outside cmd/",
	Run:  runWallTime,
}

// wallClockFuncs are the time package functions that observe the host
// clock. Duration arithmetic and formatting are fine.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runWallTime(p *Package) []Finding {
	if IsCmdPackage(p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgOf(p.Info, sel.X) == "time" && wallClockFuncs[sel.Sel.Name] {
				out = append(out, Finding{
					Rule: "walltime",
					Pos:  p.Fset.Position(sel.Pos()),
					Message: fmt.Sprintf(
						"time.%s outside cmd/: simulated time is the cycle counter; wall-clock reads belong in cmd/ progress reporting only",
						sel.Sel.Name),
				})
			}
			return true
		})
	}
	return out
}
