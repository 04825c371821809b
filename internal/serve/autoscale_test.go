package serve

import (
	"strings"
	"testing"

	"repro/internal/exposition"
	"repro/internal/replay"
)

// checkIdentity asserts the admission identity for every tenant:
// submitted == steps + queue + rejected + unserved.
func checkIdentity(t *testing.T, s *Server, when string) {
	t.Helper()
	for i := 0; i < s.NumTenants(); i++ {
		st := s.TenantStats(i)
		if got := st.Steps + int64(st.Queue) + st.Rejected + st.Unserved; got != st.Submitted {
			t.Errorf("%s: tenant %s accounting leak: steps %d + queue %d + rejected %d + unserved %d = %d != submitted %d",
				when, st.Name, st.Steps, st.Queue, st.Rejected, st.Unserved, got, st.Submitted)
		}
	}
}

// overloadConfig is a 4-tenant open-loop overload: every tenant receives 3
// credits per round against tight queues, far more than one engine drains.
// Its server autoscales with policy as.
func overloadConfig(engines int, as AutoscaleConfig) Config {
	mk := func(name string, band int, seed int64) TenantConfig {
		return TenantConfig{
			Name: name, Band: band, Procs: 8,
			Arrival: Arrival{Period: 1, Burst: 3},
			Source:  NewPatternSource(replay.Uniform, 8, 0, seed),
		}
	}
	return Config{
		Tenants: []TenantConfig{
			mk("t0", 0, 11), mk("t1", 1, 12), mk("t2", 2, 13), mk("t3", 3, 14),
		},
		Bands:     4,
		Engines:   engines,
		Seed:      7,
		QueueCap:  4,
		Autoscale: &as,
	}
}

// TestAutoscalerGrowsUnderPressure: an overloaded K=1 deployment must grow
// toward Max, the occupancy must actually rise, and the admission identity
// must hold through every transition.
func TestAutoscalerGrowsUnderPressure(t *testing.T) {
	s, err := NewServer(overloadConfig(1, AutoscaleConfig{Interval: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.Autoscaler()
	if s.Engines() != 1 {
		t.Fatalf("start K = %d", s.Engines())
	}
	activeBefore := -1
	for i := 0; i < 60; i++ {
		k := s.Engines()
		s.Round()
		if activeBefore < 0 {
			activeBefore = s.Pool().LastActive()
		}
		if s.Engines() != k {
			checkIdentity(t, s, "mid-resize")
		}
	}
	if s.Engines() != 4 {
		t.Errorf("overloaded server grew to K=%d, want the band count 4", s.Engines())
	}
	if a.Grows() == 0 || s.Stats().Resizes == 0 {
		t.Errorf("grows=%d resizes=%d, want > 0", a.Grows(), s.Stats().Resizes)
	}
	if activeAfter := s.Pool().LastActive(); activeAfter <= activeBefore {
		t.Errorf("occupancy did not rise under growth: %d -> %d", activeBefore, activeAfter)
	}
	checkIdentity(t, s, "after growth")
	s.Drain()
	checkIdentity(t, s, "after drain")
}

// TestAutoscalerShrinksWhenUnderused: one light tenant on a 4-band map at
// K=4 leaves three shards permanently empty; the autoscaler must step K
// down to Min.
func TestAutoscalerShrinksWhenUnderused(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{{
			Name: "lone", Band: 0, Procs: 8,
			Arrival: Arrival{Window: 1},
			Source:  NewPatternSource(replay.Uniform, 8, 0, 5),
		}},
		Bands:     4,
		Engines:   4,
		Seed:      7,
		QueueCap:  16,
		Autoscale: &AutoscaleConfig{Interval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(60)
	if s.Engines() != 1 {
		t.Errorf("underused server shrank to K=%d, want 1", s.Engines())
	}
	if s.Autoscaler().Shrinks() == 0 {
		t.Error("no shrink decisions recorded")
	}
	checkIdentity(t, s, "after shrink")
}

// TestAutoscalerMergeBlocksGrowth: a cross-band mix that forces serial
// merges every round must NOT be grown, no matter the queue pressure —
// more engines cannot parallelize a single component.
func TestAutoscalerMergeBlocksGrowth(t *testing.T) {
	mk := func(name string, band int, seed int64) TenantConfig {
		return TenantConfig{
			Name: name, Band: band, Procs: 8,
			Arrival: Arrival{Period: 1, Burst: 3},
			// Global traffic: every step spans all bands, merging the shards.
			Source: NewGlobalPatternSource(replay.Uniform, 8, 0, seed),
		}
	}
	s, err := NewServer(Config{
		Tenants:   []TenantConfig{mk("g0", 0, 21), mk("g1", 1, 22), mk("g2", 2, 23), mk("g3", 3, 24)},
		Bands:     4,
		Engines:   2,
		Seed:      7,
		QueueCap:  2,
		Autoscale: &AutoscaleConfig{Interval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(40)
	if st := s.Stats(); st.ForcedMerges == 0 {
		t.Fatal("global mix forced no merges; the block condition was never exercised")
	}
	if grows := s.Autoscaler().Grows(); s.Engines() != 2 || grows != 0 {
		t.Errorf("merge-bound mix grew: K=%d grows=%d, want K=2 grows=0", s.Engines(), grows)
	}
}

// TestAutoscalerBoundsAndMetrics pins config normalization (Max clamps to
// the band count) and the decision counters' exposition.
func TestAutoscalerBoundsAndMetrics(t *testing.T) {
	s, err := NewServer(overloadConfig(1, AutoscaleConfig{Max: 64, Interval: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Autoscaler().Config().Max; got != 4 {
		t.Errorf("Max = %d, want clamped to 4 bands", got)
	}
	s.Run(30)
	if s.Engines() > 4 {
		t.Errorf("K=%d grew past the band count", s.Engines())
	}
	var reg exposition.Registry
	s.Metrics(&reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pramsim_serve_autoscale_grows_total",
		"pramsim_serve_autoscale_k_max 4",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("autoscale exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestAutoscalerDeterministic: the same mix and round count produce the
// same resize schedule, twice.
func TestAutoscalerDeterministic(t *testing.T) {
	run := func() (ks []int, fp uint64) {
		s, err := NewServer(overloadConfig(1, AutoscaleConfig{Interval: 4}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 50; i++ {
			k := s.Engines()
			s.Round()
			if s.Engines() != k {
				ks = append(ks, s.Engines())
			}
		}
		s.Drain()
		return ks, s.Fingerprint()
	}
	k1, fp1 := run()
	k2, fp2 := run()
	if len(k1) == 0 {
		t.Fatal("no resizes to compare")
	}
	if fp1 != fp2 {
		t.Errorf("fingerprints diverged: %x vs %x", fp1, fp2)
	}
	for i := range k1 {
		if i >= len(k2) || k1[i] != k2[i] {
			t.Fatalf("resize schedules diverged: %v vs %v", k1, k2)
		}
	}
}
