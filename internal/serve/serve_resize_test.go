package serve

import (
	"bytes"
	"testing"

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
	if got := s.Resizes(); got != 2 {
		t.Errorf("Resizes() = %d, want 2", got)
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
			{Name: "ext0", Band: 0, Procs: 8, QueueCap: 4, Arrival: Arrival{External: true},
				Source: NewPatternSource(replay.Uniform, 8, 0, 31)},
			{Name: "ext1", Band: 1, Procs: 8, QueueCap: 4, Arrival: Arrival{External: true},
				Source: NewPatternSource(replay.Hotspot, 8, 0, 32)},
		},
		Bands:   2,
		Engines: 1,
		Seed:    7,
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
// per-tenant hashes, the same fingerprint — and byte-identical trace
// output when re-recorded.
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
	rec, err := replay.NewScriptRecorder(&scriptBuf, "externalPair test mix")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id, n int) {
		rec.Submit(live.Stats().Rounds, id, n)
		live.Submit(id, n)
	}
	for r := 0; r < 20; r++ {
		if r%3 == 0 {
			submit(0, 2)
		}
		if r%4 == 0 {
			submit(1, 3)
		}
		if r == 10 {
			rec.Resize(live.Stats().Rounds, 2)
			live.Resize(2)
		}
		live.Round()
	}
	rec.Drain(live.Stats().Rounds)
	live.Drain()
	if err := live.StopTrace(); err != nil {
		t.Fatal(err)
	}
	tenants := make([]replay.ScriptTenant, live.NumTenants())
	for i := range tenants {
		st := live.TenantStats(i)
		tenants[i] = replay.ScriptTenant{Name: st.Name, Steps: st.Steps, Hash: st.Hash}
	}
	if err := rec.Close(tenants, live.Stats().Rounds, live.Fingerprint()); err != nil {
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
	var repTrace bytes.Buffer
	if err := rep.StartTrace(&repTrace); err != nil {
		t.Fatal(err)
	}
	rep.PlayScript(sc.Events, sc.Rounds, nil)
	if err := rep.StopTrace(); err != nil {
		t.Fatal(err)
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
	if rep.Resizes() != 1 {
		t.Errorf("replay performed %d resizes, want the recorded 1", rep.Resizes())
	}
	if !bytes.Equal(liveTrace.Bytes(), repTrace.Bytes()) {
		t.Errorf("re-recorded trace differs from the live capture (%d vs %d bytes)",
			liveTrace.Len(), repTrace.Len())
	}
	checkIdentity(t, rep, "replay run")
}

// TestServeRoundObserveZeroAllocs extends the zero-alloc invariant to the
// closed loop: Round + Autoscaler.Observe stay allocation-free in steady
// state (Min == Max pins K so no transition fires mid-measurement).
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
		Bands:   3,
		Engines: 3,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := NewAutoscaler(s, AutoscaleConfig{Min: 3, Max: 3, Interval: 4})
	for i := 0; i < 10; i++ {
		s.Round()
		a.Observe()
	}
	if avg := testing.AllocsPerRun(50, func() {
		s.Round()
		a.Observe()
	}); avg != 0 {
		t.Errorf("Round+Observe allocates %.2f/op in steady state, want 0", avg)
	}
}
