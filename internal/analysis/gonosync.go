package analysis

import (
	"go/ast"
)

// GoNoSync flags `go` statements outside internal/exp. The
// simulator's cycle loop is single-threaded by contract — determinism
// comes from the (cycle, seq) event order, which a stray goroutine
// would race. internal/exp's runner is the one package licensed to fan
// whole, independent simulations across goroutines (results
// reassembled in submission order). Everything else — in particular
// internal/coherence and the rest of the simulator — stays
// goroutine-free.
var GoNoSync = &Analyzer{
	Name: "gonosync",
	Doc:  "go statement outside internal/exp",
	Run:  runGoNoSync,
}

func runGoNoSync(p *Package) []Finding {
	if IsGoroutineLicensed(p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				out = append(out, Finding{
					Rule:    "gonosync",
					Pos:     p.Fset.Position(gs.Pos()),
					Message: "go statement outside internal/exp: the sim cycle loop is single-threaded by contract; route parallelism through the exp runner",
				})
			}
			return true
		})
	}
	return out
}
