package protomodel

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// FuzzParseSpec: the .widirspec parser never panics, every accepted
// row has three non-empty fields, and its Pos names the input line
// that spells it.
func FuzzParseSpec(f *testing.F) {
	for _, path := range []string{"spec/dir.widirspec", "spec/l1.widirspec"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range malformedSpecs {
		f.Add([]byte(c.content))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const name = "fuzz.widirspec"
		spec, err := loadSpecFS(fstest.MapFS{name: {Data: data}}, ".")
		if err != nil {
			return
		}
		lines := strings.Split(string(data), "\n")
		for machine, rows := range spec.Machines {
			for _, r := range rows {
				if r.From == "" || r.Event == "" || r.Next == "" {
					t.Fatalf("machine %s: row %+v has an empty field", machine, r)
				}
				var n int
				if _, err := fmt.Sscanf(r.Pos, name+":%d", &n); err != nil || n < 1 || n > len(lines) {
					t.Fatalf("machine %s: row %+v: Pos does not name an input line", machine, r)
				}
				line, _, _ := strings.Cut(lines[n-1], "#")
				if !slices.Equal(strings.Fields(line), []string{r.From, r.Event, "->", r.Next}) {
					t.Fatalf("machine %s: row %+v: input line %d is %q", machine, r, n, lines[n-1])
				}
			}
		}
	})
}
