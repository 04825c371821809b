package main

import (
	"strings"
	"testing"

	"repro/internal/exposition"
	"repro/internal/replay"
	"repro/internal/serve"
)

// TestLintRealExposition is the self-check CI relies on: the exposition the
// serving registry actually renders — counters, gauges, per-tenant and
// server-wide histograms, hostile tenant names — lints clean.
func TestLintRealExposition(t *testing.T) {
	s, err := serve.NewServer(serve.Config{
		Tenants: []serve.TenantConfig{
			{Name: `evil"t\en{ant}` + "\n0", Band: 0, Procs: 8, Arrival: serve.Arrival{Window: 2},
				Source: serve.NewPatternSource(replay.Uniform, 8, 6, 1)},
			{Name: "plain", Band: 1, Procs: 8, Arrival: serve.Arrival{Window: 2},
				Source: serve.NewPatternSource(replay.Hotspot, 8, 6, 2)},
		},
		Bands: 2, Engines: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ServeAll(100); err != nil {
		t.Fatal(err)
	}
	var reg exposition.Registry
	s.Metrics(&reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	problems, families, samples := exposition.Lint([]byte(sb.String()))
	if len(problems) != 0 {
		t.Errorf("real exposition flagged:\n%s\nproblems: %v", sb.String(), problems)
	}
	if families < 20 || samples < 40 {
		t.Errorf("families=%d samples=%d — exposition suspiciously small", families, samples)
	}
	for _, fam := range []string{
		"pramsim_serve_tenant_step_time_bucket",
		"pramsim_serve_tenant_queue_wait_rounds_count",
		"pramsim_serve_round_active_shards_bucket",
		"pramsim_serve_round_makespan_sum",
		"pramsim_serve_round_work_count",
		"pramsim_serve_step_dedup_requests_bucket",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing histogram series %s", fam)
		}
	}
}
