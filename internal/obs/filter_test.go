package obs

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseKinds checks the -class parser on arbitrary specs: it never
// panics, a rejected spec's error names the first token that does not
// parse on its own, and an accepted spec printed back as kind names
// parses to a set that selects the same events through Filter.Match (a
// spec of only commas selects everything, as "" does).
func FuzzParseKinds(f *testing.F) {
	for _, seed := range []string{"", "wnoc, txn", "l1-fill", ",", "bogus"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		set, err := ParseKinds(spec)
		if err != nil {
			for _, tok := range strings.Split(spec, ",") {
				tok = strings.TrimSpace(tok)
				if _, bad := ParseKinds(tok); bad != nil {
					if !strings.Contains(err.Error(), fmt.Sprintf("%q", tok)) {
						t.Fatalf("ParseKinds(%q): error %q does not name the bad token %q", spec, err, tok)
					}
					return
				}
			}
			t.Fatalf("ParseKinds(%q) failed (%v), but every token parses on its own", spec, err)
		}
		var names []string
		for k := Kind(0); k < kindCount; k++ {
			if set.Has(k) {
				names = append(names, k.String())
			}
		}
		again, err := ParseKinds(strings.Join(names, ","))
		if err != nil {
			t.Fatalf("ParseKinds(%q) gave kinds %v that do not parse back: %v", spec, names, err)
		}
		a, b := NewFilter(), NewFilter()
		a.Kinds, b.Kinds = set, again
		for k := Kind(0); k < kindCount; k++ {
			e := ev(1, k, 0)
			if a.Match(e) != b.Match(e) {
				t.Fatalf("ParseKinds(%q): kind %s matches %v, printed back as %v it matches %v",
					spec, k, a.Match(e), names, b.Match(e))
			}
		}
	})
}
