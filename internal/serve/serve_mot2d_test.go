package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/replay"
)

// mot2dMixConfig builds a fresh 2-tenant n=1024 finite mix on per-shard
// 2DMOT meshes: the production-size point of the acceptance criterion
// (nTotal = 2048, δ = 1.5 → side 16384, the dense-edge ceiling's last
// feasible power of two).
func mot2dMixConfig(engines int) Config {
	return Config{
		Tenants: []TenantConfig{
			{Name: "uniform", Band: 0, Procs: 1024, Arrival: Arrival{Window: 1},
				Source: NewPatternSource(replay.Uniform, 1024, 3, 201)},
			{Name: "hotspot", Band: 1, Procs: 1024, Arrival: Arrival{Window: 1},
				Source: NewPatternSource(replay.Hotspot, 1024, 3, 202)},
		},
		Bands:        2,
		Engines:      engines,
		Seed:         13,
		Interconnect: core.KindMOT2D,
	}
}

// TestServeDeterministicMOT2D is the serving acceptance differential at
// production size on per-shard meshes: the same seed and arrival script
// must produce identical per-tenant StepReport streams (hashes), step
// counts and final store fingerprints across every engine count
// K ∈ {1,2,4,8}, exactly like the bipartite lane.
func TestServeDeterministicMOT2D(t *testing.T) {
	refStats, refFP := runMix(t, mot2dMixConfig(1))
	for _, st := range refStats {
		if st.Steps != 3 {
			t.Fatalf("tenant %s executed %d steps, want 3", st.Name, st.Steps)
		}
		if st.Cycles == 0 {
			t.Fatalf("tenant %s reports no network cycles: mesh routing did not run", st.Name)
		}
	}
	for _, K := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			s, err := NewServer(mot2dMixConfig(K))
			if err != nil {
				t.Fatal(err)
			}
			if s.Side() != 16384 {
				t.Fatalf("deployment shape: side=%d, want a 16384-side mesh", s.Side())
			}
			s.Close()
			stats, fp := runMix(t, mot2dMixConfig(K))
			if fp != refFP {
				t.Errorf("fingerprint %x, want %x", fp, refFP)
			}
			for i, st := range stats {
				ref := refStats[i]
				if st.Steps != ref.Steps || st.Hash != ref.Hash ||
					st.SimTime != ref.SimTime || st.Cycles != ref.Cycles {
					t.Errorf("tenant %s diverged: got {steps=%d hash=%x t=%d cyc=%d}, want {steps=%d hash=%x t=%d cyc=%d}",
						st.Name, st.Steps, st.Hash, st.SimTime, st.Cycles,
						ref.Steps, ref.Hash, ref.SimTime, ref.Cycles)
				}
			}
		})
	}
}

// TestServeMOT2DRoundZeroAllocs extends the serving lane's steady-state
// zero-allocation invariant to mesh-backed shards: the mesh router's
// reusable tables compose with the pool and the admission path without
// per-round heap traffic.
func TestServeMOT2DRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	s, err := NewServer(Config{
		Tenants: []TenantConfig{
			{Name: "a", Band: 0, Procs: 32, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Uniform, 32, 0, 1)},
			{Name: "b", Band: 1, Procs: 32, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Hotspot, 32, 0, 2)},
		},
		Bands:        2,
		Engines:      2,
		Seed:         7,
		Interconnect: core.KindMOT2D,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ { // grow every arena
		s.Round()
	}
	if avg := testing.AllocsPerRun(50, func() {
		if s.Round() != 2 {
			t.Fatal("closed-loop round did not schedule every shard")
		}
	}); avg != 0 {
		t.Errorf("mesh-backed Round allocates %.2f/op in steady state, want 0", avg)
	}
}

// recordTrace captures a short single-lane trace on the given machine kind
// and returns its bytes.
func recordTrace(t *testing.T, kind core.Kind, procs int) []byte {
	t.Helper()
	rcfg := core.Spec{Kind: kind, Lanes: 1, Procs: procs, Mode: model.CRCWPriority}
	built, err := rcfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	gen := replay.NewGenerator(replay.Uniform, 1, procs, built.Params.Mem, 5)
	for s := 0; s < 4; s++ {
		if rep := built.Machine.ExecuteStep(gen.Step(s)[0]); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeTraceKindValidation locks the header check: a trace replayed
// into a pool whose interconnect differs from the recorded machine kind is
// refused at admission, allowed only by the explicit override, and passes
// cleanly when the kinds agree.
func TestServeTraceKindValidation(t *testing.T) {
	dmmpc := recordTrace(t, core.KindDMMPC, 8)
	mot2d := recordTrace(t, core.KindMOT2D, 8)
	// Procs 64 over one band keeps the Theorem 3 point feasible (side 256,
	// well above the redundancy) while the 8-proc traces ride in the lower
	// processors.
	mk := func(ic core.Kind, trace []byte, allow bool) Config {
		return Config{
			Tenants: []TenantConfig{{
				Name: "trace", Band: 0, Procs: 64, Arrival: Arrival{Window: 1},
				Source: NewTraceSource(trace, 0),
			}},
			Bands:                  1,
			Engines:                1,
			Seed:                   11,
			Interconnect:           ic,
			AllowTraceKindMismatch: allow,
		}
	}
	// Mismatches in both directions are refused with the kinds named.
	if _, err := NewServer(mk(core.KindMOT2D, dmmpc, false)); err == nil {
		t.Error("dmmpc trace admitted onto mot2d interconnects")
	} else if !strings.Contains(err.Error(), "dmmpc") || !strings.Contains(err.Error(), "mot2d") {
		t.Errorf("mismatch error %q does not name both kinds", err)
	}
	if _, err := NewServer(mk(core.KindDMMPC, mot2d, false)); err == nil {
		t.Error("mot2d trace admitted onto bipartite interconnects")
	}
	// The override admits, and the mix still serves to completion.
	s, err := NewServer(mk(core.KindMOT2D, dmmpc, true))
	if err != nil {
		t.Fatalf("override rejected: %v", err)
	}
	if err := s.ServeAll(200); err != nil {
		t.Fatal(err)
	}
	if st := s.TenantStats(0); st.Steps != 4 || st.SrcErr != nil {
		t.Errorf("overridden trace tenant: steps=%d err=%v, want 4/nil", st.Steps, st.SrcErr)
	}
	s.Close()
	// Matching kinds pass without the override.
	for _, c := range []struct {
		ic    core.Kind
		trace []byte
	}{{core.KindDMMPC, dmmpc}, {core.KindMOT2D, mot2d}} {
		s, err := NewServer(mk(c.ic, c.trace, false))
		if err != nil {
			t.Fatalf("%v trace refused on %v interconnects: %v", c.ic, c.ic, err)
		}
		s.Close()
	}
}

// TestServeMOT2DInfeasibleSideErrors checks a mix too large for the
// dense-edge ceiling surfaces as a construction error, not a panic.
func TestServeMOT2DInfeasibleSideErrors(t *testing.T) {
	cfg := mot2dMixConfig(1)
	cfg.Gran = 3 // side = ceilPow2(2048^2) = 2^22 ≫ mot.MaxSide
	if _, err := NewServer(cfg); err == nil {
		t.Error("ceiling-breaching mesh accepted")
	} else if !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("unexpected error shape: %v", err)
	}
}
