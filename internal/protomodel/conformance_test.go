package protomodel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func extractFixture(t *testing.T, name string) (*Model, *Spec) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cwd, "testdata", name)
	model, err := Extract(moduleDir, dir, WiDirConfig())
	if err != nil {
		t.Fatalf("extracting %s: %v", name, err)
	}
	spec, err := LoadSpecDir(filepath.Join(dir, "spec"))
	if err != nil {
		t.Fatalf("loading %s spec: %v", name, err)
	}
	return model, spec
}

// TestConformantFixturePasses requires every spec row of the
// conformant fixture to be extracted, including DS PutS -> DI, which is
// reached only through the TxDone of a callback record handed to a
// call.
func TestConformantFixturePasses(t *testing.T) {
	model, spec := extractFixture(t, "conformant")
	if findings := Check(model, spec); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestMissingArmFixtureFails seeds a protocol implementation with one
// transition arm removed (the directory's DO GetS -> DS downgrade) and
// requires the conformance check to flag both the unimplemented spec
// row and the fall-through self-loop that replaced it, and nothing else:
// the rest of the fixture is the conformant one.
func TestMissingArmFixtureFails(t *testing.T) {
	model, spec := extractFixture(t, "missingarm")
	findings := Check(model, spec)
	if len(findings) == 0 {
		t.Fatal("missingarm fixture produced no findings")
	}
	var unimplemented, unspecified bool
	for _, f := range findings {
		switch {
		case f.Kind == "unimplemented" && f.Detail == "DO GetS -> DS":
			unimplemented = true
			if !strings.Contains(f.Pos, "dir.widirspec:") {
				t.Errorf("unimplemented finding should cite the spec line, got %q", f.Pos)
			}
		case f.Kind == "unspecified" && f.Detail == "DO GetS -> DO":
			unspecified = true
			if !strings.Contains(f.Pos, "missingarm.go:") {
				t.Errorf("unspecified finding should cite the implementation, got %q", f.Pos)
			}
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !unimplemented {
		t.Errorf("missing the unimplemented DO GetS -> DS finding; got %v", findings)
	}
	if !unspecified {
		t.Errorf("missing the unspecified DO GetS -> DO finding; got %v", findings)
	}
}

// malformedSpecs are spec files the parser must reject; FuzzParseSpec
// seeds from them too.
var malformedSpecs = []struct{ name, content, wantErr string }{
	{"bad-arrow", "machine dir\nDI GetS => DO\n", "malformed transition"},
	{"no-machine", "DI GetS -> DO\n", "before any machine"},
	{"bad-machine", "machine\n", "malformed machine"},
}

func TestSpecParserRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	for _, c := range malformedSpecs {
		path := filepath.Join(dir, "x.widirspec")
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpecDir(dir)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
	if err := os.Remove(filepath.Join(dir, "x.widirspec")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecDir(dir); err == nil || !strings.Contains(err.Error(), "no *.widirspec") {
		t.Errorf("empty dir: err = %v, want no-files error", err)
	}
}

// TestAnnotationValidation rejects a proto:transition comment naming an
// unknown state.
func TestAnnotationValidation(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	src := `package fx

//proto:transition dir NoSuchState GetS -> DI
type DirState int

const (
	DirInvalid DirState = iota
	DirShared
	DirOwned
	DirWireless
)

type MsgType int

const MsgGetS MsgType = 0

type txnKind int

const txNone txnKind = 0

type txn struct{ kind txnKind }

type Msg struct{ Type MsgType }

type DirEntry struct {
	State DirState
	busy  *txn
}

type HomeCtrl struct{}

func (h *HomeCtrl) HandleWired(m *Msg) {}
`
	// The fixture must live inside the module so the loader can resolve
	// it; testdata/ keeps it invisible to the rest of the build.
	dir, err := os.MkdirTemp(filepath.Join(cwd, "testdata"), "annot")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "fx.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Machines: []*MachineCfg{WiDirConfig().Machines[0]}}
	_, err = Extract(moduleDir, dir, cfg)
	if err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Errorf("err = %v, want unknown-state annotation error", err)
	}
}
