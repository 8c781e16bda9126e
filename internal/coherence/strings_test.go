package coherence

import (
	"strings"
	"testing"
)

// The one-past-last member of each enum. Adding a member without
// extending its String() (and these sentinels) fails the tests below.
const (
	endMsgType   = MsgWirUpd + 1
	endDirState  = DirWireless + 1
	endTxnKind   = txEvict + 1
	endProtocol  = WiDir + 1
	endDirScheme = DirCV + 1
)

// TestStringExhaustive requires every member of every protocol enum to
// render a real name — protocol-error dumps and traces embed these, and
// a raw "MsgType(17)" in a dump means a member was added without a
// name. One past the last member must hit the numeric fallback, which
// both checks the fallback path and pins the enum size the test
// believes in.
func TestStringExhaustive(t *testing.T) {
	cases := []struct {
		enum     string
		n        int // member count
		name     func(int) string
		fallback string // prefix of the out-of-range rendering
	}{
		{"MsgType", int(endMsgType), func(i int) string { return MsgType(i).String() }, "MsgType("},
		{"DirState", int(endDirState), func(i int) string { return DirState(i).String() }, "DirState("},
		{"txnKind", int(endTxnKind), func(i int) string { return txnKind(i).String() }, "txn("},
		{"Protocol", int(endProtocol), func(i int) string { return Protocol(i).String() }, ""},
		{"DirScheme", int(endDirScheme), func(i int) string { return DirScheme(i).String() }, ""},
	}
	for _, c := range cases {
		seen := make(map[string]int, c.n)
		for i := 0; i < c.n; i++ {
			got := c.name(i)
			if got == "" || (c.fallback != "" && strings.HasPrefix(got, c.fallback)) {
				t.Errorf("%s(%d).String() = %q: member has no name", c.enum, i, got)
			}
			if prev, dup := seen[got]; dup {
				t.Errorf("%s: members %d and %d share the name %q", c.enum, prev, i, got)
			}
			seen[got] = i
		}
		if c.fallback != "" {
			if got := c.name(c.n); !strings.HasPrefix(got, c.fallback) {
				t.Errorf("%s(%d).String() = %q, want the %q fallback — enum grew; extend String() and the end sentinel",
					c.enum, c.n, got, c.fallback)
			}
		}
	}
}

// TestMsgNamesTableDense requires the msgNames table to have an entry
// for every MsgType; a gap would surface as "" at the index.
func TestMsgNamesTableDense(t *testing.T) {
	if len(msgNames) != int(endMsgType) {
		t.Fatalf("msgNames has %d entries, want %d (one per MsgType member)", len(msgNames), endMsgType)
	}
	for i, name := range msgNames {
		if name == "" {
			t.Errorf("msgNames[%d] (%s) is empty", i, MsgType(i))
		}
	}
}
