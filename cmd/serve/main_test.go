package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/serve"
)

// parseShared parses args as a serving verb's shared flags.
func parseShared(t *testing.T, args ...string) *sharedFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := addShared(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

// served is what a config serves for a fixed number of rounds: the summary
// table's numbers, the fingerprint and the event dump.
func served(t *testing.T, cfg serve.Config, rounds int) string {
	t.Helper()
	o, err := execute(cfg, rounds)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, st := range o.stats {
		fmt.Fprintf(&b, "%s steps=%d submitted=%d rejected=%d hash=%x\n", st.Name, st.Steps, st.Submitted, st.Rejected, st.Hash)
	}
	fmt.Fprintf(&b, "K=%d side=%d fingerprint=%x\n", o.server.Engines(), o.server.Side(), o.fingerprint)
	if err := o.server.WriteEvents(&b, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestConfigFromMetaMatchesFlags: a live run records its flags on the
// script's meta line, and replay rebuilds the deployment from it. Both go
// through the one builder, so the two servers serve identically: same
// tenants, hashes, rejections, fingerprint and event log.
func TestConfigFromMetaMatchesFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "16", "-engines", "2", "-queue", "3", "-seed", "5", "-wseed", "42", "-mode", "common"},
		{"-n", "8", "-interconnect", "mesh", "-kexp", "1.6", "-gran", "1.7", "-dualrail", "-queue", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			const tenants, arrival = "uniform,hotspot:30,global", "open:1:2"
			sf := parseShared(t, args...)
			live, err := sf.config(tenants, arrival)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := configFromMeta(metaLine(sf, tenants, arrival, sf.engines, ""), false)
			if err != nil {
				t.Fatal(err)
			}
			want, got := served(t, live, 40), served(t, replayed, 40)
			if !strings.Contains(want, `"name":"reject"`) {
				t.Fatalf("the mix no longer overflows its queues:\n%s", want)
			}
			if got != want {
				t.Errorf("meta-built server diverged from the flag-built one:\nflags:\n%s\nmeta:\n%s", want, got)
			}
		})
	}
}

// TestInterconnectSpellings: every -interconnect spelling selects the
// fabric it selected before the flag was parsed by core.ParseKind — the
// complete bipartite graph (no mesh side) or per-shard meshes.
func TestInterconnectSpellings(t *testing.T) {
	for spelling, want := range map[string]core.Kind{
		"": core.KindDMMPC, "bipartite": core.KindDMMPC, "dmmpc": core.KindDMMPC, "complete": core.KindDMMPC,
		"mot2d": core.KindMOT2D, "mot": core.KindMOT2D, "mesh": core.KindMOT2D,
	} {
		cfg, err := parseShared(t, "-n", "8", "-interconnect", spelling).config("uniform:2", "closed:1")
		if err != nil || cfg.Interconnect != want {
			t.Errorf("-interconnect %q: kind %v, %v; want %v", spelling, cfg.Interconnect, err, want)
			continue
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			t.Fatalf("-interconnect %q: %v", spelling, err)
		}
		if mesh := s.Side() > 0; mesh != (want == core.KindMOT2D) {
			t.Errorf("-interconnect %q built side %d", spelling, s.Side())
		}
	}
	if _, err := parseShared(t, "-interconnect", "torus").config("uniform", "closed:1"); err == nil {
		t.Error("-interconnect torus accepted")
	}
}

// TestModeSpellings: every -mode spelling builds a deployment in its
// mode, case-insensitively, except EREW, which the front end refuses
// because it resolves conflicts instead of forbidding them.
func TestModeSpellings(t *testing.T) {
	for spelling, want := range map[string]model.Mode{
		"crew": model.CREW, "crcw": model.CRCWPriority, "priority": model.CRCWPriority,
		"CRCW-priority": model.CRCWPriority, "common": model.CRCWCommon, "crcw-common": model.CRCWCommon,
		"arbitrary": model.CRCWArbitrary, "CRCW-arbitrary": model.CRCWArbitrary,
	} {
		cfg, err := parseShared(t, "-mode", spelling).config("uniform:2", "closed:1")
		if err != nil || cfg.Mode != want {
			t.Errorf("-mode %q: mode %v, %v; want %v", spelling, cfg.Mode, err, want)
		}
	}
	for _, bad := range []string{"erew", "EREW"} {
		if _, err := parseShared(t, "-mode", bad).config("uniform:2", "closed:1"); err == nil || !strings.Contains(err.Error(), "does not forbid them") {
			t.Errorf("-mode %s: err = %v, want the EREW refusal", bad, err)
		}
	}
	if _, err := parseShared(t, "-mode", "comon").config("uniform:2", "closed:1"); err == nil {
		t.Error("-mode comon accepted")
	}
}

// TestOpenLoopHotspotPins pins an open-loop load-generator run: four
// unbounded hotspot tenants, bursts of 3 credits every round into queues
// of 4, 50 rounds on 2 engines, so most credits are rejected.
func TestOpenLoopHotspotPins(t *testing.T) {
	sf := parseShared(t, "-queue", "4", "-engines", "2")
	cfg, err := sf.config("hotspot,hotspot,hotspot,hotspot", "open:1:3")
	if err != nil {
		t.Fatal(err)
	}
	o, err := execute(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		rejected int64
		hash     uint64
	}{{121, 0xd6311e9a9e3c2e3b}, {121, 0xd248826a9f5a7b22}, {122, 0x0d0fd6a8326522b9}, {122, 0x4c00335387102025}}
	for i, st := range o.stats {
		if st.Submitted != 150 || st.Rejected != want[i].rejected || st.Hash != want[i].hash {
			t.Errorf("tenant %s: submitted %d, rejected %d, hash %016x; want 150, %d, %016x",
				st.Name, st.Submitted, st.Rejected, st.Hash, want[i].rejected, want[i].hash)
		}
	}
	if o.fingerprint != 0xdb69b66f1739f670 {
		t.Errorf("fingerprint %016x, want db69b66f1739f670", o.fingerprint)
	}
}

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

// goroutineWatch counts the samples that found more goroutines than the
// sample before.
type goroutineWatch struct{ last, rises int }

func (w *goroutineWatch) sample() {
	n := runtime.NumGoroutine()
	if n > w.last {
		w.rises++
	}
	w.last = n
}

// watchedSource samples its watch each time the server pulls a batch, so
// the watch sees goroutines that earlier rounds left running.
type watchedSource struct {
	serve.Source
	w *goroutineWatch
}

func (s watchedSource) NextBatch() (model.Batch, bool) {
	s.w.sample()
	return s.Source.NextBatch()
}

// TestExecuteStartsNoGoroutine: serving runs on the caller. Neither two
// busy tenants on a four-engine pool, sampled from inside their rounds,
// nor execute's error path raise the goroutine count.
func TestExecuteStartsNoGoroutine(t *testing.T) {
	w := &goroutineWatch{last: runtime.NumGoroutine()}
	tenant := func(name string, band int, pat replay.Pattern) serve.TenantConfig {
		return serve.TenantConfig{Name: name, Band: band, Procs: 8, Arrival: serve.Arrival{Window: 1},
			Source: func(b serve.Band) serve.Source {
				return watchedSource{serve.NewPatternSource(pat, 8, 6, int64(band+1))(b), w}
			}}
	}
	o, err := execute(serve.Config{
		Tenants: []serve.TenantConfig{tenant("a", 0, replay.Uniform), tenant("b", 1, replay.Hotspot)},
		Bands:   2, Engines: 4, Seed: 3,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.serverStats.ExecRounds < 2 {
		t.Fatalf("%d rounds executed, want several", o.serverStats.ExecRounds)
	}
	failing := serve.Config{
		Tenants: []serve.TenantConfig{{
			Name: "doomed", Band: 0, Procs: 8, Arrival: serve.Arrival{Window: 1},
			Source: func(serve.Band) serve.Source { return failingSource{} },
		}},
		Bands: 1, Engines: 4, Seed: 3,
	}
	if _, err := execute(failing, 0); err == nil {
		t.Fatal("execute with a failing source did not error")
	}
	w.sample()
	if w.rises > 0 {
		t.Errorf("the goroutine count rose %d times while serving", w.rises)
	}
}

// TestReplayRejectsUnknownTenant: a script submission to a tenant the meta
// line's deployment does not have, or a resize to a K that no live run of
// that deployment records, fails `serve replay` with an error that names
// the event, before any round runs.
func TestReplayRejectsUnknownTenant(t *testing.T) {
	sf := &sharedFlags{procs: 8, engines: 1, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	for _, c := range []struct {
		name   string
		record func(rec *replay.ScriptRecorder)
		want   string
	}{
		{"tenant 7 of 2", func(rec *replay.ScriptRecorder) { rec.Submit(0, 7, 1) }, "(a 0 7 1)"},
		// One engine and two bands: no live run records a K above 2.
		{"resize past the bands", func(rec *replay.ScriptRecorder) { rec.Resize(0, 3) }, "(r 0 3)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ars")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := replay.NewScriptRecorder(f, metaLine(sf, "uniform,hotspot", "external", 1, ""))
			if err != nil {
				t.Fatal(err)
			}
			rec.Submit(0, 0, 1)
			c.record(rec)
			if err := rec.Close(nil, 1, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			err = cmdReplay([]string{"-script", path})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("replay of a script with %s: %v, want an error naming the event %s", c.name, err, c.want)
			}
		})
	}
}

// TestMetaRoundTrip pins the script meta line: the deployment spec a live
// run records must rebuild an equivalent config at replay time.
func TestMetaRoundTrip(t *testing.T) {
	sf := &sharedFlags{
		procs: 16, queue: 6, seed: 5, wseed: 42,
		mode: "crcw", interconnect: "bipartite", kexp: 2, gran: 0,
	}
	meta := metaLine(sf, "uniform:5,hotspot:5", "external", 2, "1:4:8")
	cfg, err := configFromMeta(meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if a := cfg.Autoscale; a == nil || *a != (serve.AutoscaleConfig{Min: 1, Max: 4, Interval: 8}) {
		t.Errorf("autoscale meta round-trip: %+v", a)
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

// TestReplayIgnoresLegacyWorkersMeta: scripts recorded while the pool still
// had an executor carry a `workers=W` meta key. They must still replay, and
// the key must not change a byte of the replayed event log.
func TestReplayIgnoresLegacyWorkersMeta(t *testing.T) {
	sf := &sharedFlags{procs: 8, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	meta := metaLine(sf, "uniform,hotspot", "external", 2, "")
	legacy := strings.Replace(meta, " queue=", " workers=2 queue=", 1)
	if legacy == meta {
		t.Fatalf("meta line %q has no queue key to anchor the legacy workers key", meta)
	}
	replayEvents := func(meta string) string {
		t.Helper()
		var script strings.Builder
		rec, err := replay.NewScriptRecorder(&script, meta)
		if err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < 6; r++ {
			rec.Submit(r, int(r%2), 2)
		}
		if err := rec.Close(nil, 12, 0); err != nil {
			t.Fatal(err)
		}
		sc, err := replay.ReadScript(strings.NewReader(script.String()))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := configFromMeta(sc.Meta, false)
		if err != nil {
			t.Fatalf("meta %q: %v", sc.Meta, err)
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := checkScriptEvents(sc.Events, s); err != nil {
			t.Fatal(err)
		}
		s.PlayScript(sc.Events, sc.Rounds)
		var events strings.Builder
		if err := s.WriteEvents(&events, 0); err != nil {
			t.Fatal(err)
		}
		return events.String()
	}
	want, got := replayEvents(meta), replayEvents(legacy)
	if !strings.Contains(want, `"name":"submit"`) {
		t.Fatal("replayed event log holds no submission — the script no longer exercises the server")
	}
	if got != want {
		t.Errorf("a workers= meta key changed the replay:\ncurrent:\n%s\nlegacy:\n%s", want, got)
	}
}

// TestConfigFromMetaDefaults: a meta line sets only the shared flags it
// names, so a key it lacks keeps addShared's default, and a boolean key
// parses as the flag does: a value flag.Bool refuses is an error, not
// false.
func TestConfigFromMetaDefaults(t *testing.T) {
	cfg, err := configFromMeta(`tenants="uniform,hotspot" arrival="external" dualrail=1`, false)
	if err != nil {
		t.Fatal(err)
	}
	defaults := parseShared(t)
	if cfg.Tenants[0].Procs != defaults.procs || cfg.QueueCap != defaults.queue || !cfg.DualRail {
		t.Errorf("procs %d, queue %d, dualrail %v; want the flag defaults %d and %d, and true",
			cfg.Tenants[0].Procs, cfg.QueueCap, cfg.DualRail, defaults.procs, defaults.queue)
	}
	for _, bad := range []string{"dualrail=yes", "allowkind=on", "n=many"} {
		if _, err := configFromMeta(`tenants="uniform" `+bad, false); err == nil || !strings.Contains(err.Error(), bad[:strings.IndexByte(bad, '=')]) {
			t.Errorf("meta %s: err = %v, want an error naming the key", bad, err)
		}
	}
}

// recordScript serves "uniform,hotspot" by Submit alone, two credits to
// one tenant every fourth round so that none is rejected, drains, and
// writes the server's arrival script to a file. It returns the file and
// its lines.
func recordScript(t *testing.T) (string, []string) {
	t.Helper()
	sf := &sharedFlags{procs: 8, engines: 1, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	cfg, err := sf.config("uniform,hotspot", "external")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var script bytes.Buffer
	if err := s.StartScript(&script, metaLine(sf, "uniform,hotspot", "external", 1, "")); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		if r%4 == 0 {
			s.Submit(r/4%2, 2)
		}
		s.Round()
	}
	s.Drain()
	if err := s.StopScript(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ars")
	if err := os.WriteFile(path, script.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, strings.Split(strings.TrimSuffix(script.String(), "\n"), "\n")
}

// TestReplayNamesFirstDifferingLine: `serve replay` passes a recorded
// script and fails an edited one with an error naming the first line at
// which its re-recording differs. A changed footer hash is that line
// itself; a changed submission replays as written, so the first line
// that differs is the footer of the tenant it starved.
func TestReplayNamesFirstDifferingLine(t *testing.T) {
	path, lines := recordScript(t)
	if err := cmdReplay([]string{"-script", path}); err != nil {
		t.Fatalf("unedited script: %v", err)
	}
	first := func(prefix string) int {
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return i
			}
		}
		t.Fatalf("script has no %q line:\n%s", prefix, strings.Join(lines, "\n"))
		return -1
	}
	sub, foot := first("a "), first("t ")
	if !strings.HasSuffix(lines[sub], " 0 2") {
		t.Fatalf("first submission %q is not tenant 0's 2 credits", lines[sub])
	}
	f := strings.Fields(lines[foot]) // t <steps> <hash> <name>
	hash, err := strconv.ParseUint(f[2], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	f[2] = fmt.Sprintf("%016x", ^hash)
	for _, c := range []struct {
		line int
		edit string
		want int // the line the error must name
	}{
		{foot, strings.Join(f, " "), foot},
		{sub, strings.TrimSuffix(lines[sub], "2") + "1", foot},
	} {
		edited := slices.Clone(lines)
		edited[c.line] = c.edit
		bad := filepath.Join(t.TempDir(), "edited.ars")
		if err := os.WriteFile(bad, []byte(strings.Join(edited, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("at line %d: want %q", c.want+1, edited[c.want])
		if err := cmdReplay([]string{"-script", bad}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("line %d edited to %q: err = %v, want one containing %s", c.line+1, c.edit, err, want)
		}
	}
}

// TestEventsVerbDump drives `serve run -record-events FILE` end to end:
// the file is the valid JSON event dump of the run whose summary went to
// standard output, holding every event the run recorded.
func TestEventsVerbDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.json")
	args := []string{"-tenants", "uniform:4,hotspot:4", "-n", "8", "-engines", "1", "-rounds", "0"}
	if err := cmdRun(append(args, "-record-events", path)); err != nil {
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
	events := int64(0)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" || ev.Ph == "i" {
			events++
		}
	}
	if events == 0 || events != doc.OtherData.Total || doc.OtherData.Dropped != 0 {
		t.Errorf("dump holds %d events with total %d, dropped %d; want every recorded event",
			events, doc.OtherData.Total, doc.OtherData.Dropped)
	}
	sf := parseShared(t, args[2:]...)
	cfg, err := sf.config("uniform:4,hotspot:4", "closed:2")
	if err != nil {
		t.Fatal(err)
	}
	if want := served(t, cfg, 0); !strings.HasSuffix(want, string(data)) {
		t.Errorf("dump differs from the event dump of the same run:\nfile:\n%s\nrun:\n%s", data, want)
	}
}
