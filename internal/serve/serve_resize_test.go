package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exposition"
	"repro/internal/replay"
)

// TestServeResizeKInvariance is the serving half of the resize determinism
// story: a finite closed-loop mix served through a K=4 → 2 → 4 resize
// sequence must produce the SAME per-tenant hashes, step counts and store
// fingerprint as the fixed-K reference run — a resize trades wall clock
// and occupancy only.
func TestServeResizeKInvariance(t *testing.T) {
	refStats, refFP := runMix(t, mixConfig(1))

	s, err := NewServer(mixConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(5)
	checkIdentity(t, s, "pre-resize")
	s.Resize(2)
	checkIdentity(t, s, "post-shrink")
	s.Run(5)
	s.Resize(4)
	checkIdentity(t, s, "post-grow")
	if err := s.ServeAll(2000); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Resizes; got != 2 {
		t.Errorf("Resizes = %d, want 2", got)
	}
	if fp := s.Fingerprint(); fp != refFP {
		t.Errorf("fingerprint %x after resizes, want %x", fp, refFP)
	}
	for i, ref := range refStats {
		st := s.TenantStats(i)
		if st.Steps != ref.Steps || st.Hash != ref.Hash {
			t.Errorf("tenant %s diverged across resizes: steps %d/%d hash %x/%x",
				st.Name, st.Steps, ref.Steps, st.Hash, ref.Hash)
		}
	}
	checkIdentity(t, s, "final")
}

// TestServeResizeOccupancy pins the operational point of a resize: with
// one tenant per band, K controls how many shards carry work each round.
func TestServeResizeOccupancy(t *testing.T) {
	s, err := NewServer(mixConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Round()
	if got := s.Pool().LastActive(); got != 4 {
		t.Fatalf("K=4 occupancy %d, want 4 (one tenant per shard)", got)
	}
	s.Resize(1)
	s.Round()
	if got := s.Pool().LastActive(); got != 1 {
		t.Errorf("K=1 occupancy %d, want 1 (all tenants share the shard)", got)
	}
	s.Resize(4)
	s.Round()
	if got := s.Pool().LastActive(); got != 4 {
		t.Errorf("re-grown occupancy %d, want 4", got)
	}
	checkIdentity(t, s, "after occupancy sweep")
}

// externalPair builds a 2-tenant external-admission mix (no autonomous
// arrivals: credits enter via Submit only).
func externalPair() Config {
	return Config{
		Tenants: []TenantConfig{
			{Name: "ext0", Band: 0, Procs: 8, Arrival: Arrival{External: true},
				Source: NewPatternSource(replay.Uniform, 8, 0, 31)},
			{Name: "ext1", Band: 1, Procs: 8, Arrival: Arrival{External: true},
				Source: NewPatternSource(replay.Hotspot, 8, 0, 32)},
		},
		Bands:    2,
		Engines:  1,
		Seed:     7,
		QueueCap: 4,
	}
}

// TestServeSubmitExternal covers the external-admission path: no
// autonomous arrivals, bounded acceptance, rejection counting, the drain
// guard, and the admission identity throughout.
func TestServeSubmitExternal(t *testing.T) {
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(3)
	if st := s.TenantStats(0); st.Submitted != 0 || st.Steps != 0 {
		t.Fatalf("external tenant ran without Submit: %+v", st)
	}
	id, ok := s.TenantID("ext0")
	if !ok || id != 0 {
		t.Fatalf("TenantID(ext0) = %d,%v", id, ok)
	}
	if _, ok := s.TenantID("nobody"); ok {
		t.Fatal("TenantID resolved an unknown tenant")
	}
	acc, rej := s.Submit(0, 10) // cap 4: 4 accepted, 6 rejected
	if acc != 4 || rej != 6 {
		t.Errorf("Submit(0,10) = %d,%d, want 4,6", acc, rej)
	}
	if acc, rej = s.Submit(1, 2); acc != 2 || rej != 0 {
		t.Errorf("Submit(1,2) = %d,%d, want 2,0", acc, rej)
	}
	checkIdentity(t, s, "after submits")
	// K=1: both tenants share shard 0, round-robin serves one step per round.
	s.Run(4)
	if st0, st1 := s.TenantStats(0), s.TenantStats(1); st0.Steps != 2 || st1.Steps != 2 {
		t.Errorf("round-robin served %d/%d steps after 4 rounds, want 2/2", st0.Steps, st1.Steps)
	}
	s.StopAdmission()
	if acc, rej = s.Submit(0, 3); acc != 0 || rej != 3 {
		t.Errorf("draining Submit = %d,%d, want 0,3", acc, rej)
	}
	s.Drain()
	for i := 0; i < s.NumTenants(); i++ {
		if q := s.TenantStats(i).Queue; q != 0 {
			t.Errorf("tenant %d queue %d after drain", i, q)
		}
	}
	checkIdentity(t, s, "after drain")
}

// TestServeScriptReplayBitForBit is the live-mode determinism acceptance:
// a run driven by external submissions and an online resize, recorded as a
// PRAMTRC1 trace + arrival script, replays in virtual time to the same
// per-tenant hashes, the same fingerprint — and byte-identical trace and
// script output when re-recorded.
func TestServeScriptReplayBitForBit(t *testing.T) {
	// --- the "live" run (virtual stand-in for wall-clock HTTP mode) ---
	live, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var liveTrace bytes.Buffer
	if err := live.StartTrace(&liveTrace); err != nil {
		t.Fatal(err)
	}
	var scriptBuf bytes.Buffer
	if err := live.StartScript(&scriptBuf, "externalPair test mix"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		if r%3 == 0 {
			live.Submit(0, 2)
		}
		if r%4 == 0 {
			live.Submit(1, 3)
		}
		if r == 10 {
			live.Resize(2)
		}
		live.Round()
	}
	live.Drain()
	if err := live.StopTrace(); err != nil {
		t.Fatal(err)
	}
	if err := live.StopScript(); err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, live, "live run")

	// --- the offline replay ---
	sc, err := replay.ReadScript(bytes.NewReader(scriptBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	var repTrace, repScript bytes.Buffer
	if err := rep.StartTrace(&repTrace); err != nil {
		t.Fatal(err)
	}
	if err := rep.StartScript(&repScript, sc.Meta); err != nil {
		t.Fatal(err)
	}
	rep.PlayScript(sc.Events, sc.Rounds)
	if err := rep.StopTrace(); err != nil {
		t.Fatal(err)
	}
	if err := rep.StopScript(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scriptBuf.Bytes(), repScript.Bytes()) {
		t.Errorf("re-recorded script differs from the live one:\nlive:\n%s\nreplay:\n%s", scriptBuf.String(), repScript.String())
	}
	if got := rep.Stats().Rounds; got != sc.Rounds {
		t.Errorf("replay ran %d rounds, script says %d", got, sc.Rounds)
	}
	for i, want := range sc.Tenants {
		st := rep.TenantStats(i)
		if st.Name != want.Name || st.Steps != want.Steps || st.Hash != want.Hash {
			t.Errorf("tenant %d: replay {%s %d %x}, script {%s %d %x}",
				i, st.Name, st.Steps, st.Hash, want.Name, want.Steps, want.Hash)
		}
		liveSt := live.TenantStats(i)
		if st.Submitted != liveSt.Submitted || st.Rejected != liveSt.Rejected ||
			st.Unserved != liveSt.Unserved || st.Queue != liveSt.Queue {
			t.Errorf("tenant %d accounting diverged: replay {sub=%d rej=%d uns=%d q=%d}, live {sub=%d rej=%d uns=%d q=%d}",
				i, st.Submitted, st.Rejected, st.Unserved, st.Queue,
				liveSt.Submitted, liveSt.Rejected, liveSt.Unserved, liveSt.Queue)
		}
	}
	if rep.Fingerprint() != sc.Fingerprint {
		t.Errorf("replay fingerprint %x, script %x", rep.Fingerprint(), sc.Fingerprint)
	}
	if got := rep.Stats().Resizes; got != 1 {
		t.Errorf("replay performed %d resizes, want the recorded 1", got)
	}
	if !bytes.Equal(liveTrace.Bytes(), repTrace.Bytes()) {
		t.Errorf("re-recorded trace differs from the live capture (%d vs %d bytes)",
			liveTrace.Len(), repTrace.Len())
	}
	checkIdentity(t, rep, "replay run")
}

// TestServeRoundObserveZeroAllocs extends the zero-alloc invariant to the
// closed loop: a Round that also runs the server's autoscaler stays
// allocation-free in steady state (Min == Max pins K so no transition
// fires mid-measurement).
func TestServeRoundObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	s, err := NewServer(Config{
		Tenants: []TenantConfig{
			{Name: "a", Band: 0, Procs: 32, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Uniform, 32, 0, 1)},
			{Name: "b", Band: 1, Procs: 32, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Hotspot, 32, 0, 2)},
			{Name: "c", Band: 2, Procs: 16, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Broadcast, 16, 0, 3)},
		},
		Bands:     3,
		Engines:   3,
		Seed:      7,
		Autoscale: &AutoscaleConfig{Min: 3, Max: 3, Interval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(10)
	if avg := testing.AllocsPerRun(50, func() { s.Round() }); avg != 0 {
		t.Errorf("Round with an autoscaler allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestServerRecordsAndScalesItself: a server built with Config.Autoscale,
// driven only by Submit through its own resizes and then drained, records
// an arrival script that PlayScript on a fresh server from the same Config
// records again byte for byte, and the two servers render the same
// /metrics exposition, the autoscaler's families included.
func TestServerRecordsAndScalesItself(t *testing.T) {
	config := func() Config {
		cfg := externalPair()
		cfg.Autoscale = &AutoscaleConfig{Interval: 4}
		return cfg
	}
	record := func(drive func(s *Server)) (script, metrics string, resizes int64) {
		t.Helper()
		s, err := NewServer(config())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var reg exposition.Registry
		s.Metrics(&reg)
		var buf, scrape bytes.Buffer
		if err := s.StartScript(&buf, "self-scaling test mix"); err != nil {
			t.Fatal(err)
		}
		drive(s)
		if err := s.StopScript(); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.WriteTo(&scrape); err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, s, "after the run")
		return buf.String(), scrape.String(), s.Stats().Resizes
	}
	live, liveMetrics, resizes := record(func(s *Server) {
		for r := 0; r < 48; r++ {
			if r < 20 {
				s.Submit(r%2, 3) // saturates both queues: rejections grow K
			}
			s.Round() // then silence shrinks it back
		}
		s.Drain()
	})
	if resizes < 2 {
		t.Fatalf("%d resizes, want a grow and a shrink:\n%s", resizes, live)
	}
	sc, err := replay.ReadScript(strings.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	replayed, replayedMetrics, _ := record(func(s *Server) { s.PlayScript(sc.Events, sc.Rounds) })
	if replayed != live {
		t.Errorf("replayed script differs:\nlive:\n%s\nreplay:\n%s", live, replayed)
	}
	if !strings.Contains(liveMetrics, "pramsim_serve_autoscale_grows_total 1") {
		t.Errorf("exposition lacks the autoscaler's grow:\n%s", liveMetrics)
	}
	if replayedMetrics != liveMetrics {
		t.Errorf("replayed exposition differs:\nlive:\n%s\nreplay:\n%s", liveMetrics, replayedMetrics)
	}
}
