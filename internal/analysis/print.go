// Shared findings output for the CLIs that report findings
// (widir-lint's determinism findings, widir-mcheck's conformance
// findings): one text renderer and one JSON encoder, so tooling that
// consumes findings (CI problem matchers, editors, the artifact
// uploads) sees a single format regardless of which tool produced
// them.
//
// Both CLIs share one exit-code convention:
//
//	0 — clean
//	1 — findings reported (widir-mcheck: under -check)
//	2 — usage or load error
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// JSONFinding is the stable wire form of one finding.
type JSONFinding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// SortFindings orders findings by file, line, column, then rule — the
// canonical reporting order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// Relativize rewrites finding filenames relative to dir when they sit
// beneath it, for stable output independent of the checkout location.
func Relativize(dir string, fs []Finding) {
	for i := range fs {
		if rel, err := filepath.Rel(dir, fs[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) &&
			rel != "" && rel[0] != '.' {
			fs[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// WriteFindings renders findings to w: one "file:line:col: [rule]
// message" line each, or — with jsonOut — a JSON array of JSONFinding
// (an empty slice encodes as [], never null).
func WriteFindings(w io.Writer, fs []Finding, jsonOut bool) error {
	if !jsonOut {
		for _, f := range fs {
			if _, err := fmt.Fprintln(w, f); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]JSONFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, JSONFinding{
			Rule: f.Rule, File: f.Pos.Filename, Line: f.Pos.Line,
			Col: f.Pos.Column, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
