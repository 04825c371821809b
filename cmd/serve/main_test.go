package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/serve"
)

var errBoom = errors.New("synthetic source failure")

// TestParseArrivalRejectsDegenerateOpen is the regression for the
// open:0:0 bug: a degenerate open-loop spec used to slip through to the
// Arrival zero value and silently become closed-loop window 1.
func TestParseArrivalRejectsDegenerateOpen(t *testing.T) {
	for _, bad := range []string{"open:0:0", "open:0", "open:0:5", "open:5:0", "external:1", "bogus"} {
		if _, err := parseArrival(bad); err == nil {
			t.Errorf("parseArrival(%q) accepted a degenerate spec", bad)
		}
	}
	a, err := parseArrival("open:2:3")
	if err != nil || a.Period != 2 || a.Burst != 3 {
		t.Errorf("parseArrival(open:2:3) = %+v, %v", a, err)
	}
	if a, err = parseArrival("closed:4"); err != nil || a.Window != 4 {
		t.Errorf("parseArrival(closed:4) = %+v, %v", a, err)
	}
	for _, ext := range []string{"external", "none"} {
		if a, err = parseArrival(ext); err != nil || !a.External {
			t.Errorf("parseArrival(%q) = %+v, %v, want External", ext, a, err)
		}
	}
}

// writeTestTrace records a tiny 2-tenant serving trace to path.
func writeTestTrace(t *testing.T, path string) {
	t.Helper()
	s, err := serve.NewServer(serve.Config{
		Tenants: []serve.TenantConfig{
			{Name: "a", Band: 0, Procs: 8, Arrival: serve.Arrival{Window: 1},
				Source: serve.NewPatternSource(replay.Uniform, 8, 4, 1)},
			{Name: "b", Band: 1, Procs: 8, Arrival: serve.Arrival{Window: 1},
				Source: serve.NewPatternSource(replay.Hotspot, 8, 4, 2)},
		},
		Bands: 2, Engines: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.StartTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := s.ServeAll(100); err != nil {
		t.Fatal(err)
	}
	if err := s.StopTrace(); err != nil {
		t.Fatal(err)
	}
}

// TestParseTenantsColonPaths is the regression for trace specs breaking
// on file paths that contain colons: only a TRAILING integer field may be
// split off as the lane.
func TestParseTenantsColonPaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mix:v1:final.trc")
	writeTestTrace(t, path)
	sf := &sharedFlags{procs: 8, queue: 4}
	arr := serve.Arrival{Window: 1}

	tcs, err := parseTenants("trace:"+path, sf, arr)
	if err != nil {
		t.Fatalf("colon path without lane: %v", err)
	}
	if len(tcs) != 1 || tcs[0].Procs != 8 {
		t.Errorf("tcs = %+v", tcs)
	}
	if tcs, err = parseTenants("trace:"+path+":1", sf, arr); err != nil {
		t.Fatalf("colon path with lane: %v", err)
	}
	if len(tcs) != 1 {
		t.Errorf("tcs = %+v", tcs)
	}
	// A missing file must surface the FULL path in the error, proving the
	// spec was not split at its interior colons.
	missing := filepath.Join(dir, "no:such:file.trc")
	if _, err = parseTenants("trace:"+missing, sf, arr); err == nil || !strings.Contains(err.Error(), "no:such:file.trc") {
		t.Errorf("missing colon path error = %v, want the full path", err)
	}
	if _, err = parseTenants("trace:", sf, arr); err == nil {
		t.Error("empty trace file accepted")
	}
	// Pattern specs stay strict: trailing junk is an error, not ignored.
	if _, err = parseTenants("uniform:5:9", sf, arr); err == nil {
		t.Error("uniform:5:9 accepted; the extra field should be an error")
	}
}

// failingSource exhausts immediately with an error — the SrcErr path
// through execute.
type failingSource struct{}

func (failingSource) Procs() int                     { return 8 }
func (failingSource) NextBatch() (model.Batch, bool) { return nil, false }
func (failingSource) Err() error                     { return errBoom }

// TestExecuteClosesPoolOnError is the goroutine-leak regression: the
// ServeAll and SrcErr error returns in execute used to skip Pool.Close,
// stranding the pool's executor goroutines.
func TestExecuteClosesPoolOnError(t *testing.T) {
	mkCfg := func() serve.Config {
		return serve.Config{
			Tenants: []serve.TenantConfig{{
				Name: "doomed", Band: 0, Procs: 8, Arrival: serve.Arrival{Window: 1},
				Source: func(serve.Band) serve.Source { return failingSource{} },
			}},
			Bands: 1, Engines: 4, Workers: 4, Seed: 3,
		}
	}
	// Warm up lazy runtime goroutines before taking the baseline.
	if _, err := execute(mkCfg(), 0); err == nil {
		t.Fatal("execute with a failing source did not error")
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := execute(mkCfg(), 0); err == nil {
			t.Fatal("execute with a failing source did not error")
		}
	}
	var n int
	for wait := 0; wait < 100; wait++ {
		if n = runtime.NumGoroutine(); n <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked across failed executes: baseline %d, now %d", baseline, n)
}

// TestMetaRoundTrip pins the script meta line: the deployment spec a live
// run records must rebuild an equivalent config at replay time.
func TestMetaRoundTrip(t *testing.T) {
	sf := &sharedFlags{
		procs: 16, workers: 2, queue: 6, seed: 5, wseed: 42,
		mode: "crcw", interconnect: "bipartite", kexp: 2, gran: 0,
	}
	meta := metaLine(sf, "uniform:5,hotspot:5", "external", 2, "1:4:8")
	cfg, err := configFromMeta(meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := metaValue(meta, "autoscale"); err != nil || spec != "1:4:8" {
		t.Errorf("autoscale meta round-trip: %q, %v", spec, err)
	}
	if len(cfg.Tenants) != 2 || cfg.Engines != 2 || cfg.Seed != 5 || cfg.QueueCap != 6 {
		t.Errorf("cfg = {tenants=%d engines=%d seed=%d queue=%d}", len(cfg.Tenants), cfg.Engines, cfg.Seed, cfg.QueueCap)
	}
	if !cfg.Tenants[0].Arrival.External {
		t.Error("arrival did not round-trip as external")
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Meta lines with pathological tenant specs survive quoting.
	meta = metaLine(sf, `trace:/odd path/mix:v1.trc:1`, "closed:2", 1, "")
	kv, err := parseMetaLine(meta)
	if err != nil {
		t.Fatal(err)
	}
	if kv["tenants"] != `trace:/odd path/mix:v1.trc:1` || kv["arrival"] != "closed:2" {
		t.Errorf("quoted meta round-trip: %q / %q", kv["tenants"], kv["arrival"])
	}
}

// TestEventsVerbDump drives `serve events -o FILE -limit N` end to end:
// the file is valid JSON holding exactly the N most recent events, with
// the truncation counted in its header.
func TestEventsVerbDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.json")
	if err := cmdEvents([]string{"-tenants", "uniform:4,hotspot:4", "-n", "8", "-engines", "1",
		"-rounds", "0", "-limit", "5", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   struct{ Total, Dropped int64 }
		TraceEvents []struct{ Ph string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, data)
	}
	events := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			events++
		}
	}
	if events != 5 || doc.OtherData.Dropped != doc.OtherData.Total-5 {
		t.Errorf("dump holds %d events with total %d, dropped %d; want 5 and dropped = total-5",
			events, doc.OtherData.Total, doc.OtherData.Dropped)
	}
}
