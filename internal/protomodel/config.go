package protomodel

// EnumRef names an integer enum (a defined type plus its typed consts)
// the extractor treats as one dimension of a state machine.
type EnumRef struct {
	Pkg    string            // import path; "" = the analyzed package
	Type   string            // type name, e.g. "DirState"
	Prefix string            // const-name prefix stripped for display ("Msg")
	Rename map[string]string // const name -> display name overrides
}

// BusyCfg describes how a machine models its transient (busy) states:
// assigning `<entry>.<Field> = &<Struct>{<KindField>: <const>}` moves
// the machine into the transient state named Prefix+<kind display>.
type BusyCfg struct {
	Struct    string  // transaction struct type name ("txn")
	Field     string  // entry field holding the transaction ("busy")
	KindField string  // struct field selecting the kind ("kind")
	Kinds     EnumRef // the kind enum ("txnKind")
	Prefix    string  // display prefix for transient states ("busy:")
}

// EntryPoint is one "Recv.Method" root the walker starts from. Event
// names the annotation-only event delivered by the entry point ("" =
// the event is determined inside, by Msg.Type switching). Events is
// the root's event set: the message-type members it receives, which
// an event switch's default arm stands for. A root without a set
// receives the message-type members that no other root names.
type EntryPoint struct {
	Recv   string
	Method string
	Event  string
	Events []string
}

// MachineCfg describes one state machine to extract.
type MachineCfg struct {
	Name       string
	States     EnumRef  // stable-state enum
	Busy       *BusyCfg // transient states (nil = none)
	Events     EnumRef  // message-type enum
	Extra      []string // annotation-only events (Evict, CoreLoad, ...)
	StateField string   // field whose assignment changes state ("State")
	Invalid    string   // display name of the absent/invalid state

	// EventStruct/EventField: `<EventStruct>.<EventField>` is the
	// current event selector (Msg.Type). Other event-typed expressions
	// stay symbolic.
	EventStruct string
	EventField  string

	// ErrorMethod: a receiver method in the analyzed package that
	// reports a protocol error; calls become `-> error` transitions.
	ErrorMethod string

	// EntryType/EntryTypePkg: the entry/line pointer type whose
	// nil-ness encodes the Invalid state. EntryTypePkg "" = the
	// analyzed package. NotNilExcludesInvalid additionally narrows the
	// non-nil branch to the stable states minus Invalid (true for the
	// L1, whose lines exist iff non-Invalid; false for the directory,
	// whose entries are allocated in DI).
	EntryType             string
	EntryTypePkg          string
	NotNilExcludesInvalid bool

	// EntryPoints are the roots the walker starts from.
	EntryPoints []EntryPoint

	// DeleteElem: `t.<DeleteTableMethod>(k)` on a *<DeleteTableRecv>[E]
	// whose type argument E is *DeleteElem drops the entry from the
	// controller's flat line table, i.e. moves the machine to Invalid.
	DeleteElem        string
	DeleteTableRecv   string
	DeleteTableMethod string
	// InvalidatePkg/InvalidateRecv/InvalidateMethod: a call
	// `<expr>.<Method>(...)` where <expr> has type *<Recv> from <Pkg>
	// moves the machine to Invalid (the L1's cache array Invalidate).
	InvalidatePkg    string
	InvalidateRecv   string
	InvalidateMethod string
	// InstallPkg/InstallRecv/InstallMethod/InstallStateArg: a call
	// installing a line at the state given by argument InstallStateArg
	// (the L1's cache array Install).
	InstallPkg      string
	InstallRecv     string
	InstallMethod   string
	InstallStateArg int
}

// Config is the full extraction configuration for one package.
type Config struct {
	Machines []*MachineCfg
}

// CoherencePkg is the package the WiDir protocol model is extracted from.
const CoherencePkg = "repro/internal/coherence"

// WiDirConfig returns the extraction configuration for the repo's
// MESI+W protocol: the directory FSM (home.go) and the private-cache
// FSM (l1.go).
func WiDirConfig() *Config {
	// The broadcasts every node's HandleWireless receives; the wired
	// HandleWired roots receive every other message type.
	wireless := []string{"BrWirUpgr", "WirDwgr", "WirInv", "WirUpd"}
	return &Config{Machines: []*MachineCfg{
		{
			Name: "dir",
			States: EnumRef{Type: "DirState", Rename: map[string]string{
				"DirInvalid": "DI", "DirShared": "DS", "DirOwned": "DO", "DirWireless": "DW",
			}},
			Busy: &BusyCfg{
				Struct: "txn", Field: "busy", KindField: "kind",
				Kinds: EnumRef{Type: "txnKind", Rename: map[string]string{
					// Mirrors txnKind.String() in errors.go; cross-checked
					// by TestBusyNamesMatchStringer.
					"txNone": "none", "txFetchMem": "fetch-mem",
					"txFwdGetS": "fwd-gets", "txFwdGetX": "fwd-getx",
					"txInvAll": "inv-all", "txSToW": "s-to-w",
					"txWAddSharer": "w-add-sharer", "txWToS": "w-to-s",
					"txEvict": "evict",
				}},
				Prefix: "busy:",
			},
			Events:      EnumRef{Type: "MsgType", Prefix: "Msg"},
			Extra:       []string{"Evict", "WirelessFault"},
			StateField:  "State",
			Invalid:     "DI",
			EventStruct: "Msg",
			EventField:  "Type",
			ErrorMethod: "fail",
			EntryType:   "DirEntry",
			EntryPoints: []EntryPoint{
				{Recv: "HomeCtrl", Method: "HandleWired"},
				{Recv: "HomeCtrl", Method: "HandleWireless", Events: wireless},
				{Recv: "HomeCtrl", Method: "NoteWirelessFault", Event: "WirelessFault"},
			},
			DeleteElem:        "DirEntry",
			DeleteTableRecv:   "lineTable",
			DeleteTableMethod: "del",
		},
		{
			Name: "l1",
			States: EnumRef{Pkg: "repro/internal/cache", Type: "State", Rename: map[string]string{
				"Invalid": "I", "Shared": "S", "Exclusive": "E", "Modified": "M", "Wireless": "W",
			}},
			Events:                EnumRef{Type: "MsgType", Prefix: "Msg"},
			Extra:                 []string{"Evict", "CoreLoad", "CoreStore", "CoreRMW"},
			StateField:            "State",
			Invalid:               "I",
			EventStruct:           "Msg",
			EventField:            "Type",
			ErrorMethod:           "fail",
			EntryType:             "Line",
			EntryTypePkg:          "repro/internal/cache",
			NotNilExcludesInvalid: true,
			EntryPoints: []EntryPoint{
				{Recv: "L1Ctrl", Method: "HandleWired"},
				{Recv: "L1Ctrl", Method: "HandleWireless", Events: wireless},
			},
			InvalidatePkg:    "repro/internal/cache",
			InvalidateRecv:   "Cache",
			InvalidateMethod: "Invalidate",
			InstallPkg:       "repro/internal/cache",
			InstallRecv:      "Cache",
			InstallMethod:    "Install",
			InstallStateArg:  1,
		},
	}}
}
