// Command widir-lint enforces the repository's determinism contract
// (DESIGN.md §10) statically: it type-checks the requested packages
// with the standard library's go/parser + go/types and runs the
// internal/analysis rule set — mapiter, walltime, globalrand,
// floatorder, gonosync, switchcases (an enum switch may not drop
// members silently: it needs every member or a default arm),
// protopanic (no bare panic in internal/coherence; protocol failures
// are typed coherence.ProtocolError values reported through
// Env.ReportProtocolError) and globalmut (no mutable package-level
// state in sim packages) — printing one file:line:col finding per
// violation and exiting nonzero when any survive. `make check` and CI
// both gate on it.
//
// Usage:
//
//	widir-lint [-debug] [-json] [packages]
//
// Packages default to ./... and accept go-style patterns ("./...",
// "./internal/...", plain directories). Findings are suppressed by a
// `//lint:deterministic <why>` comment on the offending line or the
// line above it; a suppression that no longer suppresses anything is
// itself reported (staleignore), so the escape hatch cannot outlive
// its justification. Exit codes follow the shared convention: 0
// clean, 1 findings, 2 usage-or-load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("widir-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	debug := fs.Bool("debug", false, "print soft type-check errors and per-package progress")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: widir-lint [-debug] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "widir-lint:", err)
		return 2
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "widir-lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintln(stderr, "widir-lint:", err)
		return 2
	}
	dirs, err := analysis.ExpandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "widir-lint:", err)
		return 2
	}

	var findings []analysis.Finding
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(stderr, "widir-lint:", err)
			return 2
		}
		if *debug {
			fmt.Fprintf(stderr, "widir-lint: %s (%d files, %d type notes)\n",
				pkg.Path, len(pkg.Files), len(pkg.TypeErrors))
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "  note: %v\n", te)
			}
		}
		findings = append(findings, analysis.RunAll(pkg)...)
	}

	analysis.SortFindings(findings)
	analysis.Relativize(cwd, findings)
	if err := analysis.WriteFindings(stdout, findings, *jsonOut); err != nil {
		fmt.Fprintln(stderr, "widir-lint:", err)
		return 2
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(stderr, "widir-lint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
