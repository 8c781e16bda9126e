package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// farm spins up a Server plus an httptest front-end over a cache dir.
func farm(t *testing.T, dir string, workers, maxQueue int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{CacheDir: dir, Workers: workers, MaxQueue: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// submit posts a sweep and decodes the 202 body.
func submit(t *testing.T, ts *httptest.Server, sr SweepRequest) (jobID string, keys []Key) {
	t.Helper()
	resp := post(t, ts, sr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: %s (%s)", resp.Status, e["error"])
	}
	var body struct {
		Job  string `json:"job"`
		Keys []Key  `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Job, body.Keys
}

func post(t *testing.T, ts *httptest.Server, sr SweepRequest) *http.Response {
	t.Helper()
	data, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// stream reads a job's result stream to completion.
func stream(t *testing.T, ts *httptest.Server, jobID string) []RunStatus {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/stream", ts.URL, jobID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	var out []RunStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st RunStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		out = append(out, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func tinySweep(client string) SweepRequest {
	return SweepRequest{
		Client:    client,
		Protocols: []string{"baseline", "widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{1, 2},
	}
}

// TestServeEndToEnd drives the full farm surface: submit, stream,
// status, byte-identity against a direct exp.Runner, then a second
// identical submission served without a single new simulation, then a
// fresh server over the same cache dir serving everything from disk.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := farm(t, dir, 2, 64)

	jobID, keys := submit(t, ts, tinySweep("e2e"))
	if len(keys) != 4 {
		t.Fatalf("2 protocols x 1 app x 2 seeds should be 4 runs, got %d", len(keys))
	}
	results := stream(t, ts, jobID)
	if len(results) != 4 {
		t.Fatalf("stream delivered %d results, want 4", len(results))
	}
	byHash := map[string]RunStatus{}
	for _, r := range results {
		if r.State != "done" {
			t.Fatalf("run %s state %q (err %q)", r.Key.ID, r.State, r.Error)
		}
		if r.Source != "sim" {
			t.Fatalf("first-ever run %s came from %q, want sim", r.Key.ID, r.Source)
		}
		if len(r.Result) == 0 {
			t.Fatalf("run %s has no result body", r.Key.ID)
		}
		byHash[r.Key.Hash] = r
	}

	// Byte-identity: a fresh, serial, farm-free runner must produce
	// exactly the bytes the farm streamed.
	direct := exp.NewRunner(1)
	for _, r := range results {
		rk, err := r.Spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := direct.Sim(rk.Protocol, rk.Cores, rk.App, rk.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Result, want) {
			t.Fatalf("run %s: farm result is not byte-identical to a direct serial run", r.Key.ID)
		}
	}

	// Job status after completion.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		State     string `json:"state"`
		Completed int    `json:"completed"`
		Failed    int    `json:"failed"`
	}
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if status.State != "done" || status.Completed != 4 || status.Failed != 0 {
		t.Fatalf("job status %+v", status)
	}

	// Second identical submission: zero new simulations (memo or disk),
	// same bytes.
	simsBefore := s.Runner().Stats().Sims
	jobID2, _ := submit(t, ts, tinySweep("e2e"))
	for _, r := range stream(t, ts, jobID2) {
		if r.Source == "sim" {
			t.Fatalf("repeat run %s re-simulated", r.Key.ID)
		}
		if !bytes.Equal(r.Result, byHash[r.Key.Hash].Result) {
			t.Fatalf("repeat run %s returned different bytes", r.Key.ID)
		}
	}
	if sims := s.Runner().Stats().Sims; sims != simsBefore {
		t.Fatalf("repeat sweep executed %d new simulations", sims-simsBefore)
	}

	// "Restart": a brand-new server over the same cache dir has a cold
	// memo, so every run must come from the disk cache — and still zero
	// simulations.
	s2, ts2 := farm(t, dir, 2, 64)
	jobID3, _ := submit(t, ts2, tinySweep("e2e-restarted"))
	for _, r := range stream(t, ts2, jobID3) {
		if r.Source != "cache" {
			t.Fatalf("post-restart run %s came from %q, want cache", r.Key.ID, r.Source)
		}
		if !bytes.Equal(r.Result, byHash[r.Key.Hash].Result) {
			t.Fatalf("post-restart run %s returned different bytes", r.Key.ID)
		}
	}
	st := s2.Stats()
	if st.Runner.Sims != 0 || st.Runner.CacheHits != 4 {
		t.Fatalf("post-restart farm should be all cache hits, runner stats %+v", st.Runner)
	}
}

// TestServeArtifacts: an artifact run stores and serves the trace
// JSONL, Perfetto and CSV artifacts; the CSV is also fetchable for
// plain runs.
func TestServeArtifacts(t *testing.T) {
	_, ts := farm(t, t.TempDir(), 1, 64)
	jobID, keys := submit(t, ts, SweepRequest{
		Client:    "tracer",
		Protocols: []string{"widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{1},
		Artifacts: true,
	})
	results := stream(t, ts, jobID)
	if len(results) != 1 || results[0].State != "done" {
		t.Fatalf("artifact run failed: %+v", results)
	}
	for _, name := range []string{ArtifactCSV, ArtifactJSONL, ArtifactPerfetto} {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/runs/%s/artifacts/%s", ts.URL, keys[0].Hash, name))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: %s", name, resp.Status)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if buf.Len() == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
	}
	// Unknown artifact name and bogus hash 404/400 cleanly.
	resp, _ := http.Get(fmt.Sprintf("%s/api/v1/runs/%s/artifacts/secrets.txt", ts.URL, keys[0].Hash))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-whitelisted artifact: %s", resp.Status)
	}
	resp.Body.Close()
	for _, bad := range []string{"nothex", strings.Repeat("z", 64)} {
		resp, _ = http.Get(ts.URL + "/api/v1/runs/" + bad + "/artifacts/" + ArtifactCSV)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad hash %q: %s", bad, resp.Status)
		}
		resp.Body.Close()
	}
}

// TestServeArtifactUpgradesPlainEntry: a plain run caches only the
// result; a later artifact request for the same run re-simulates
// traced and upgrades the entry rather than serving a trace-less hit.
func TestServeArtifactUpgradesPlainEntry(t *testing.T) {
	s, ts := farm(t, t.TempDir(), 1, 64)
	plain := SweepRequest{
		Client: "up", Protocols: []string{"widir"}, Apps: []string{"water-spa"},
		Cores: 4, Scale: 0.02, Seeds: []uint64{1},
	}
	jobID, keys := submit(t, ts, plain)
	first := stream(t, ts, jobID)

	traced := plain
	traced.Artifacts = true
	jobID2, _ := submit(t, ts, traced)
	results := stream(t, ts, jobID2)
	if results[0].Source != "sim" {
		t.Fatalf("artifact request over a plain entry must re-simulate traced, got %q", results[0].Source)
	}
	if !bytes.Equal(results[0].Result, first[0].Result) {
		t.Fatal("traced re-simulation changed the result bytes: tracing is not inert")
	}
	if !s.Cache().HasArtifacts(keys[0]) {
		t.Fatal("entry was not upgraded with trace artifacts")
	}
	// Third request: now served from the upgraded entry.
	jobID3, _ := submit(t, ts, traced)
	if r := stream(t, ts, jobID3); r[0].Source != "cache" {
		t.Fatalf("upgraded entry not served from cache, got %q", r[0].Source)
	}
}

// TestServeRejectsBadSweeps: validation surfaces as 400s.
func TestServeRejectsBadSweeps(t *testing.T) {
	_, ts := farm(t, t.TempDir(), 1, 64)
	bad := []SweepRequest{
		{Protocols: []string{"widir"}, Apps: []string{"no-such-app"}, Cores: 4, Scale: 0.02, Seeds: []uint64{1}},
		{Protocols: []string{"token-ring"}, Apps: []string{"water-spa"}, Cores: 4, Scale: 0.02, Seeds: []uint64{1}},
		{Protocols: []string{"widir"}, Apps: []string{"water-spa"}, Cores: 4, Scale: 0.02},
		{},
	}
	for i, sr := range bad {
		resp := post(t, ts, sr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sweep %d accepted: %s", i, resp.Status)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestServeDrainRejectsNewWork: after Drain starts, new sweeps get
// 503 while health and stats stay readable.
func TestServeDrainRejectsNewWork(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir(), Workers: 1, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts, tinySweep("late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %s, want 503", resp.Status)
	}
	resp.Body.Close()
	for _, path := range []string{"/healthz", "/api/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during drain: %s", path, resp.Status)
		}
		resp.Body.Close()
	}
}
