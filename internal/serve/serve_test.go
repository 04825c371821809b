package serve

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exposition"
	"repro/internal/model"
	"repro/internal/replay"
)

// mixConfig builds a fresh 4-tenant finite mix — uneven tenant sizes,
// mixed patterns, closed-loop window 2 — over 4 bands. Source factories
// hold per-server state, so every call returns an independent config.
func mixConfig(engines int) Config {
	return Config{
		Tenants: []TenantConfig{
			{Name: "alpha", Band: 0, Procs: 16, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Uniform, 16, 20, 101)},
			{Name: "beta", Band: 1, Procs: 16, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Hotspot, 16, 20, 102)},
			{Name: "gamma", Band: 2, Procs: 8, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Uniform, 8, 15, 103)},
			{Name: "delta", Band: 3, Procs: 4, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Broadcast, 4, 10, 104)},
		},
		Bands:   4,
		Engines: engines,
		Seed:    7,
	}
}

// runMix serves the mix to completion and returns the per-tenant stats
// plus the final store fingerprint.
func runMix(t *testing.T, cfg Config) ([]TenantStats, uint64) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ServeAll(2000); err != nil {
		t.Fatal(err)
	}
	stats := make([]TenantStats, s.NumTenants())
	for i := range stats {
		stats[i] = s.TenantStats(i)
		if stats[i].SrcErr != nil {
			t.Fatalf("tenant %s source: %v", stats[i].Name, stats[i].SrcErr)
		}
	}
	return stats, s.Fingerprint()
}

// TestServeDeterministic is the acceptance differential: the same seed and
// arrival script must produce identical per-tenant StepReport streams
// (hashes), step counts and final store fingerprints across every engine
// count K ∈ {1,2,4,8}.
func TestServeDeterministic(t *testing.T) {
	refStats, refFP := runMix(t, mixConfig(1))
	wantSteps := []int64{20, 20, 15, 10}
	for i, st := range refStats {
		if st.Steps != wantSteps[i] {
			t.Fatalf("tenant %s executed %d steps, want %d", st.Name, st.Steps, wantSteps[i])
		}
		if st.Rejected != 0 {
			t.Fatalf("closed-loop tenant %s rejected %d", st.Name, st.Rejected)
		}
	}
	for _, K := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			stats, fp := runMix(t, mixConfig(K))
			if fp != refFP {
				t.Errorf("fingerprint %x, want %x", fp, refFP)
			}
			for i, st := range stats {
				ref := refStats[i]
				if st.Steps != ref.Steps || st.Hash != ref.Hash ||
					st.SimTime != ref.SimTime || st.Phases != ref.Phases ||
					st.Copies != ref.Copies || st.MaxCont != ref.MaxCont {
					t.Errorf("tenant %s diverged: got {steps=%d hash=%x t=%d ph=%d cp=%d cont=%d}, want {steps=%d hash=%x t=%d ph=%d cp=%d cont=%d}",
						st.Name, st.Steps, st.Hash, st.SimTime, st.Phases, st.Copies, st.MaxCont,
						ref.Steps, ref.Hash, ref.SimTime, ref.Phases, ref.Copies, ref.MaxCont)
				}
			}
		})
	}
}

// TestServeBandedMixStaysMergeFree locks the band-aware fast path: a
// band-local mix never forces a serial-component merge at any K.
func TestServeBandedMixStaysMergeFree(t *testing.T) {
	for _, K := range []int{1, 2, 4} {
		s, err := NewServer(mixConfig(K))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ServeAll(2000); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.ForcedMerges != 0 || st.MergedRounds != 0 || st.BandOverlaps != 0 {
			t.Errorf("K=%d: banded mix degraded: %+v", K, st)
		}
		s.Close()
	}
}

// TestServeBackpressure drives an open-loop arrival process past the queue
// cap and checks the explicit-rejection contract: depth never exceeds the
// cap, every overflow is counted, and accounting balances exactly.
func TestServeBackpressure(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{{
			Name: "burst", Band: 0, Procs: 8,
			Arrival: Arrival{Period: 1, Burst: 3},
			Source:  NewPatternSource(replay.Uniform, 8, 0, 42),
		}},
		Bands:    1,
		Engines:  1,
		Seed:     3,
		QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Round()
		if q := s.TenantStats(0).Queue; q > 2 {
			t.Fatalf("round %d: queue depth %d exceeds cap 2", i, q)
		}
	}
	st := s.TenantStats(0)
	if st.Submitted != 30 {
		t.Errorf("submitted %d, want 30", st.Submitted)
	}
	if st.Rejected == 0 {
		t.Error("overloaded queue rejected nothing")
	}
	if st.Steps+int64(st.Queue)+st.Rejected != st.Submitted {
		t.Errorf("accounting leak: steps %d + queue %d + rejected %d != submitted %d",
			st.Steps, st.Queue, st.Rejected, st.Submitted)
	}
	if st.MaxQueue != 2 {
		t.Errorf("high-water queue %d, want 2", st.MaxQueue)
	}

	// Drain consumes every admitted credit and stops admission.
	s.Drain()
	st = s.TenantStats(0)
	if st.Queue != 0 {
		t.Errorf("queue depth %d after drain, want 0", st.Queue)
	}
	if st.Submitted != 30 {
		t.Errorf("drain admitted more work: submitted %d", st.Submitted)
	}
	if got := s.Round(); got != 0 {
		t.Errorf("round after drain executed %d steps", got)
	}
}

// TestServeClosedLoopWindowAboveCap checks a closed-loop window larger
// than the queue cap is honored (the window is itself a queue bound) and
// never rejects.
func TestServeClosedLoopWindowAboveCap(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{{
			Name: "wide", Band: 0, Procs: 8,
			Arrival: Arrival{Window: 16},
			Source:  NewPatternSource(replay.Uniform, 8, 0, 42),
		}},
		Bands:    1,
		Engines:  1,
		Seed:     3,
		QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(20)
	st := s.TenantStats(0)
	if st.Rejected != 0 {
		t.Errorf("closed-loop window rejected %d credits", st.Rejected)
	}
	if st.MaxQueue != 16 {
		t.Errorf("high-water queue %d, want the window 16", st.MaxQueue)
	}
}

// TestServeUnservedCredits checks the accounting identity when a source
// exhausts under admitted credits: the leftovers are counted as Unserved,
// never silently voided.
func TestServeUnservedCredits(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{{
			Name: "short", Band: 0, Procs: 8,
			Arrival: Arrival{Period: 1, Burst: 4},
			Source:  NewPatternSource(replay.Uniform, 8, 3, 42), // 3 steps only
		}},
		Bands:    1,
		Engines:  1,
		Seed:     3,
		QueueCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(5)
	s.Drain()
	st := s.TenantStats(0)
	if st.Steps != 3 {
		t.Fatalf("executed %d steps of a 3-step source", st.Steps)
	}
	if st.Unserved == 0 {
		t.Error("credits beyond the source's end not counted as Unserved")
	}
	if st.Steps+int64(st.Queue)+st.Rejected+st.Unserved != st.Submitted {
		t.Errorf("accounting leak: steps %d + queue %d + rejected %d + unserved %d != submitted %d",
			st.Steps, st.Queue, st.Rejected, st.Unserved, st.Submitted)
	}
}

// TestServeBurstyArrivals checks the on/off gating of the open-loop shape.
func TestServeBurstyArrivals(t *testing.T) {
	a := Arrival{Period: 1, Burst: 2, On: 3, Off: 2}
	var got []int
	for r := int64(0); r < 10; r++ {
		got = append(got, a.arrivals(r, 0))
	}
	want := []int{2, 2, 2, 0, 0, 2, 2, 2, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", got, want)
		}
	}
}

// TestServeTraceTenant serves a recorded trace alongside a live generator
// tenant and checks the trace's step count and run-to-run determinism.
func TestServeTraceTenant(t *testing.T) {
	// Record a small single-lane DMMPC trace.
	rcfg := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 8, Mode: model.CRCWPriority}
	built, err := rcfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	gen := replay.NewGenerator(replay.Uniform, 1, 8, built.Params.Mem, 5)
	const traceSteps = 6
	for s := 0; s < traceSteps; s++ {
		if rep := built.Machine.ExecuteStep(gen.Step(s)[0]); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	mk := func() Config {
		return Config{
			Tenants: []TenantConfig{
				{Name: "trace", Band: 0, Procs: 8, Arrival: Arrival{Window: 1},
					Source: NewTraceSource(buf.Bytes(), 0)},
				{Name: "live", Band: 1, Procs: 8, Arrival: Arrival{Window: 1},
					Source: NewPatternSource(replay.Uniform, 8, 10, 9)},
			},
			Bands:   2,
			Engines: 2,
			Seed:    11,
		}
	}
	stats1, fp1 := runMix(t, mk())
	if stats1[0].Steps != traceSteps {
		t.Errorf("trace tenant executed %d steps, want %d", stats1[0].Steps, traceSteps)
	}
	stats2, fp2 := runMix(t, mk())
	if fp1 != fp2 || stats1[0].Hash != stats2[0].Hash || stats1[1].Hash != stats2[1].Hash {
		t.Errorf("trace-tenant serving not reproducible: fp %x/%x, hashes %x/%x %x/%x",
			fp1, fp2, stats1[0].Hash, stats2[0].Hash, stats1[1].Hash, stats2[1].Hash)
	}
}

// TestServeUnevenTenantsShareShard multiplexes three tenants of different
// sizes onto fewer engines than bands and checks round-robin fairness.
func TestServeUnevenTenantsShareShard(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{
			{Name: "big", Band: 0, Procs: 16, Arrival: Arrival{Window: 1},
				Source: NewPatternSource(replay.Uniform, 16, 12, 1)},
			{Name: "mid", Band: 1, Procs: 8, Arrival: Arrival{Window: 1},
				Source: NewPatternSource(replay.Uniform, 8, 12, 2)},
			{Name: "small", Band: 2, Procs: 2, Arrival: Arrival{Window: 1},
				Source: NewPatternSource(replay.Uniform, 2, 12, 3)},
		},
		Bands:   3,
		Engines: 2, // bands 0 and 2 share shard 0
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ServeAll(500); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumTenants(); i++ {
		if st := s.TenantStats(i); st.Steps != 12 {
			t.Errorf("tenant %s executed %d steps, want 12", st.Name, st.Steps)
		}
	}
	if st := s.Stats(); st.ForcedMerges != 0 {
		t.Errorf("band-local mix forced %d merges", st.ForcedMerges)
	}
}

// TestServeMetricsExposition renders the serving metrics and spot-checks
// family presence and a tenant sample.
func TestServeMetricsExposition(t *testing.T) {
	s, err := NewServer(mixConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ServeAll(2000); err != nil {
		t.Fatal(err)
	}
	var reg exposition.Registry
	s.Metrics(&reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pramsim_serve_rounds_total counter",
		"pramsim_serve_engines 2",
		`pramsim_serve_tenant_steps_total{tenant="alpha",band="0",shard="0"} 20`,
		`pramsim_serve_tenant_queue_depth{tenant="delta",band="3",shard="1"} 0`,
		"pramsim_serve_forced_merges_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestServeConfigValidation exercises the error paths.
func TestServeConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := mixConfig(1)
	bad.Tenants[2].Band = 9
	if _, err := NewServer(bad); err == nil {
		t.Error("out-of-range band accepted")
	}
	bad = mixConfig(1)
	bad.Tenants[0].Procs = 0
	if _, err := NewServer(bad); err == nil {
		t.Error("zero procs accepted")
	}
	bad = mixConfig(1)
	bad.Tenants[0].Source = nil
	if _, err := NewServer(bad); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := NewServer(mixConfig(-1)); err == nil || !strings.Contains(err.Error(), "engine count -1") {
		t.Errorf("negative engine count: err = %v, want an engine-count error", err)
	}
	// An infeasible parameter point errors, not panics: one processor on
	// one band leaves Lemma 2 with M = n^(1+ε) = 1 module, not more than n.
	tiny := Config{
		Tenants: []TenantConfig{{Name: "t", Band: 0, Procs: 1, Source: NewPatternSource(replay.Uniform, 1, 1, 1)}},
		Bands:   1,
	}
	if _, err := NewServer(tiny); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("infeasible point: err = %v, want an infeasible-parameters error", err)
	}
}

// TestStartTraceRejectsBandTenantMismatch: a serve trace has one lane per
// tenant, and its reader rebuilds the map banded once per lane. With more
// bands than tenants that rebuild is a different machine, so StartTrace
// refuses instead of writing a capture replay.Open rejects.
func TestStartTraceRejectsBandTenantMismatch(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{{Name: "t", Band: 0, Procs: 16, Arrival: Arrival{Window: 1},
			Source: NewPatternSource(replay.Uniform, 16, 2, 1)}},
		Bands: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	err = s.StartTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "1 tenants on 2 bands") {
		t.Fatalf("StartTrace: %v, want an error naming 1 tenant and 2 bands", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused trace wrote %d bytes", buf.Len())
	}
	if err := s.ServeAll(10); err != nil {
		t.Fatal(err)
	}
}

// TestCrossBandCaptureVerifies: a serving capture lists each round's step
// frames in the order they ran, so replay.Open verifies it bit for bit.
// Three global-traffic tenants on K = 2 engines put tenant 2 on shard 0
// ahead of tenant 1 on shard 1, so a round's shard order differs from its
// tenant order, and the tenants collide on modules, so running a round's
// steps in any other order changes what they read and leave behind.
func TestCrossBandCaptureVerifies(t *testing.T) {
	mk := func(name string, band int, seed int64) TenantConfig {
		return TenantConfig{Name: name, Band: band, Procs: 8, Arrival: Arrival{Window: 1},
			Source: NewGlobalPatternSource(replay.Uniform, 8, 40, seed)}
	}
	s, err := NewServer(Config{
		Tenants: []TenantConfig{mk("g0", 0, 41), mk("g1", 1, 42), mk("g2", 2, 43)},
		Bands:   3,
		Engines: 2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var trace bytes.Buffer
	if err := s.StartTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := s.ServeAll(200); err != nil {
		t.Fatal(err)
	}
	if err := s.StopTrace(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ForcedMerges == 0 {
		t.Fatal("the mix forced no merges: its tenants never collided on a module")
	}

	rd, err := replay.NewReader(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	descending, prev := 0, -1
	for {
		f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case replay.KindStep:
			if f.Lane < prev {
				descending++
			}
			prev = f.Lane
		case replay.KindBarrier:
			prev = -1
		}
	}
	if descending == 0 {
		t.Error("no round lists its tenants out of lane order")
	}

	rp, err := replay.Open(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rp.Verify = true
	sum, err := rp.Run()
	if err != nil {
		t.Fatalf("replaying the capture: %v", err)
	}
	if sum.Mismatches != 0 || !sum.FingerprintChecked || !sum.FingerprintOK {
		t.Fatalf("capture did not verify: %d mismatches %v (fingerprint checked=%v ok=%v)",
			sum.Mismatches, sum.MismatchDetail, sum.FingerprintChecked, sum.FingerprintOK)
	}
	if sum.ReplayFingerprint != s.Fingerprint() {
		t.Errorf("replay fingerprint %x, live %x", sum.ReplayFingerprint, s.Fingerprint())
	}
	var steps int64
	for i := 0; i < s.NumTenants(); i++ {
		steps += s.TenantStats(i).Steps
	}
	if sum.Steps != steps || sum.Rounds != s.Stats().ExecRounds {
		t.Errorf("replayed %d steps in %d rounds, live served %d in %d", sum.Steps, sum.Rounds, steps, s.Stats().ExecRounds)
	}
}
