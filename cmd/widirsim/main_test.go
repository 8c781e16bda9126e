package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
)

// writeConfig stores data as a config file in a test directory.
func writeConfig(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "machine.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDumpConfigRoundTrips: the -dump-config output loads back through
// -config as exactly the configuration it was dumped from, whatever the
// base it is loaded over.
func TestDumpConfigRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpConfig(&buf, 16); err != nil {
		t.Fatal(err)
	}
	got, err := loadConfig(writeConfig(t, buf.Bytes()), machine.DefaultConfig(64, coherence.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if want := machine.DefaultConfig(16, coherence.WiDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the configuration:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadConfigRejectsUnknownField: a saved config naming a field the
// machine no longer has (here the removed flit-level NoC switch) is an
// error, not a run on a silently different machine.
func TestLoadConfigRejectsUnknownField(t *testing.T) {
	var buf bytes.Buffer
	if err := dumpConfig(&buf, 16); err != nil {
		t.Fatal(err)
	}
	data := strings.Replace(buf.String(), "{", "{\n  \"FlitLevelNoC\": true,", 1)
	_, err := loadConfig(writeConfig(t, []byte(data)), machine.DefaultConfig(16, coherence.WiDir))
	if err == nil || !strings.Contains(err.Error(), "FlitLevelNoC") {
		t.Fatalf("loadConfig error = %v, want an unknown-field error naming FlitLevelNoC", err)
	}
}
