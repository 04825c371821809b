package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exposition"
	"repro/internal/replay"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// histString renders a histogram's full state for bit-for-bit comparison.
func histString(h *exposition.Histogram) string {
	var sb strings.Builder
	for i := 0; i <= h.Buckets(); i++ {
		fmt.Fprintf(&sb, "%d,", h.BucketCount(i))
	}
	fmt.Fprintf(&sb, "sum=%d,count=%d", h.Sum(), h.Count())
	return sb.String()
}

// serveMix runs a mix to completion and hands the still-open server to fn.
func serveMix(t *testing.T, cfg Config, fn func(s *Server)) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ServeAll(2000); err != nil {
		t.Fatal(err)
	}
	fn(s)
}

// TestHistogramsKInvariant: for a finite mix served to completion, every
// tenant executes the exact same step multiset at every K, so the
// per-tenant step-time histograms and the server-wide dedup-batch-size
// histogram must be bit-for-bit identical across engine counts. (Queue
// waits, occupancy and round aggregates legitimately depend on the round
// schedule and are K-variant.)
func TestHistogramsKInvariant(t *testing.T) {
	var refStep []string
	var refDedup string
	var refQuorum, refCommit []int64
	serveMix(t, mixConfig(1), func(s *Server) {
		for i, tn := range s.tenants {
			refStep = append(refStep, histString(tn.hStep))
			ts := s.TenantStats(i)
			if ts.QuorumTime+ts.CommitTime != ts.SimTime {
				t.Errorf("tenant %s: stage split %d+%d does not tile SimTime %d",
					tn.cfg.Name, ts.QuorumTime, ts.CommitTime, ts.SimTime)
			}
			refQuorum = append(refQuorum, ts.QuorumTime)
			refCommit = append(refCommit, ts.CommitTime)
		}
		refDedup = histString(s.hDedup)
		if s.hDedup.Count() == 0 || s.hRoundMakespan.Count() == 0 {
			t.Fatal("histograms empty — instrumentation not wired")
		}
	})
	for _, K := range []int{2, 4, 8} {
		serveMix(t, mixConfig(K), func(s *Server) {
			for i, tn := range s.tenants {
				if got := histString(tn.hStep); got != refStep[i] {
					t.Errorf("K=%d tenant %s step-time histogram diverged:\n got %s\nwant %s",
						K, tn.cfg.Name, got, refStep[i])
				}
				// The per-tenant stage split is K-invariant for the same
				// reason hStep is: the step multiset — and each step's
				// retrieval/update decomposition — is a pure function of
				// the tenant's program.
				ts := s.TenantStats(i)
				if ts.QuorumTime != refQuorum[i] || ts.CommitTime != refCommit[i] {
					t.Errorf("K=%d tenant %s stage split diverged: got %d/%d want %d/%d",
						K, tn.cfg.Name, ts.QuorumTime, ts.CommitTime, refQuorum[i], refCommit[i])
				}
			}
			if got := histString(s.hDedup); got != refDedup {
				t.Errorf("K=%d dedup histogram diverged:\n got %s\nwant %s", K, got, refDedup)
			}
		})
	}
}

// TestFlightReplayParity: a scripted run's event dump and histograms are
// reproduced exactly by PlayScript on a fresh server — the serve-level
// half of the `serve replay -events` contract — and the dump carries the
// script's admission facts next to every pipeline stage.
func TestFlightReplayParity(t *testing.T) {
	script := []replay.ScriptEvent{
		{Round: 0, Tenant: 0, Credits: 3},
		{Round: 0, Tenant: 1, Credits: 6}, // overflows cap 4 → deterministic reject
		{Round: 2, Tenant: 0, Credits: 2},
		{Round: 3, K: 2},
		{Round: 5, Tenant: 1, Credits: 1},
		{Round: 7, K: 1},
		{Round: 9}, // drain
	}
	const rounds = 14
	run := func() (string, []string, uint64) {
		s, err := NewServer(externalPair())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.PlayScript(script, rounds)
		var buf bytes.Buffer
		if err := s.WriteEvents(&buf, 0); err != nil {
			t.Fatal(err)
		}
		var hists []string
		for _, tn := range s.tenants {
			hists = append(hists, histString(tn.hStep), histString(tn.hWait))
		}
		hists = append(hists, histString(s.hRoundActive), histString(s.hRoundWork), histString(s.hDedup))
		return buf.String(), hists, s.Fingerprint()
	}
	events1, hists1, fp1 := run()
	events2, hists2, fp2 := run()
	if events1 != events2 {
		t.Errorf("event dump not reproducible:\n%s\nvs\n%s", events1, events2)
	}
	for i := range hists1 {
		if hists1[i] != hists2[i] {
			t.Errorf("histogram %d not reproducible: %s vs %s", i, hists1[i], hists2[i])
		}
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint not reproducible: %x vs %x", fp1, fp2)
	}
	for _, re := range []string{
		`"name":"submit","ph":"i",.*"args":\{"round":0,"tenant":"ext1","accepted":4,"rejected":2\}`,
		`"name":"resize","ph":"i",.*"from":1,"to":2\}`,
		`"name":"resize","ph":"i",.*"from":2,"to":1\}`,
		`"name":"drain","ph":"i",.*"args":\{"round":9\}`,
		`"name":"schedule","ph":"X"`, `"name":"partition","ph":"X"`, `"name":"wait","ph":"X"`,
		`"name":"quorum","ph":"X"`, `"name":"commit","ph":"X"`, `"name":"route","ph":"X"`,
		`"name":"merge","ph":"X"`,
	} {
		if !regexp.MustCompile(re).MatchString(events1) {
			t.Errorf("event dump has no line matching %s:\n%s", re, events1)
		}
	}
}

// TestGoldenExposition pins the full /metrics exposition of a deterministic
// two-tenant run — families, label escaping, histogram bucket series and
// their order — and re-renders after an online Resize to prove the scrape
// never carries stale shard-labeled families. Regenerate with
// `go test ./internal/serve -run TestGoldenExposition -update`.
func TestGoldenExposition(t *testing.T) {
	s, err := NewServer(Config{
		Tenants: []TenantConfig{
			{Name: "alpha", Band: 0, Procs: 8, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Uniform, 8, 6, 1)},
			{Name: "beta", Band: 1, Procs: 8, Arrival: Arrival{Window: 2},
				Source: NewPatternSource(replay.Hotspot, 8, 6, 2)},
		},
		Bands: 2, Engines: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var reg exposition.Registry
	s.Metrics(&reg)
	if err := s.ServeAll(100); err != nil {
		t.Fatal(err)
	}

	check := func(name string) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("exposition diverged from %s (regenerate with -update if intended):\n--- got ---\n%s", path, buf.String())
		}
	}
	check("golden_metrics.txt")

	// Shrink to K=1: tenant beta moves to shard 0. The re-rendered scrape
	// must carry the new placement and drop every shard="1" series.
	s.Resize(1)
	check("golden_metrics_resized.txt")
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `shard="1"`) {
		t.Error("post-resize exposition still carries shard=\"1\" series")
	}
	if !strings.Contains(buf.String(), `pramsim_serve_tenant_steps_total{tenant="beta",band="1",shard="0"}`) {
		t.Error("post-resize exposition missing beta's shard=\"0\" placement")
	}
}

// TestGoldenExpositionLint runs the dependency-free promlint over the
// checked-in golden scrapes, so a golden regenerated with -update can
// never smuggle a grammar or histogram-shape violation past CI: the
// goldens prove the exposition is STABLE, this proves it is VALID.
func TestGoldenExpositionLint(t *testing.T) {
	for _, name := range []string{"golden_metrics.txt", "golden_metrics_resized.txt"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		problems, families, samples := exposition.Lint(data)
		for _, p := range problems {
			t.Errorf("%s: %s", name, p)
		}
		if families == 0 || samples == 0 {
			t.Errorf("%s: lint saw %d families / %d samples — empty golden?", name, families, samples)
		}
	}
}
