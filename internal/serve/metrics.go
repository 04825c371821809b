package serve

import (
	"strconv"

	"repro/internal/exposition"
)

// collector renders the server's counters as Prometheus families. Label
// strings are precomputed at registration so collection allocates only in
// the registry's own rendering — and recomputed when an online Resize
// moves tenants between shards (the shard label is part of the identity).
type collector struct {
	s            *Server
	labelsK      int // the K the cached labels were computed for
	tenantLabels []string
	shardLabels  []string
	// histLabels are per-tenant labels WITHOUT the shard: histograms
	// accumulate across online resizes, so stamping them with a placement
	// that can change mid-run would strand observations under stale series.
	histLabels []string
	// stageQuorumLabels/stageCommitLabels extend histLabels with the
	// stage label for the per-tenant stage-time attribution families —
	// like histLabels they deliberately omit the shard, so the series
	// survive online resizes (and stay K-invariant, see the package doc).
	stageQuorumLabels []string
	stageCommitLabels []string
}

// Metrics registers the server's serving metrics, and its autoscaler's
// when it has one, with a exposition.Registry. Render only between rounds
// (or after Drain): the underlying counters are mutated by the serving
// goroutine without synchronization.
func (s *Server) Metrics(reg *exposition.Registry) {
	c := &collector{s: s}
	c.refreshLabels()
	reg.Register(c)
	if s.as != nil {
		reg.Register(autoscaleCollector{s.as})
	}
}

// refreshLabels (re)computes the per-tenant and per-shard label strings
// for the server's current K.
func (c *collector) refreshLabels() {
	s := c.s
	c.labelsK = s.k
	c.tenantLabels = c.tenantLabels[:0]
	for _, t := range s.tenants {
		c.tenantLabels = append(c.tenantLabels, exposition.Labels(
			exposition.Label("tenant", t.cfg.Name),
			exposition.Label("band", strconv.Itoa(t.cfg.Band)),
			exposition.Label("shard", strconv.Itoa(t.shard))))
	}
	c.shardLabels = c.shardLabels[:0]
	for sh := 0; sh < s.k; sh++ {
		c.shardLabels = append(c.shardLabels, exposition.Label("shard", strconv.Itoa(sh)))
	}
	c.histLabels = c.histLabels[:0]
	c.stageQuorumLabels = c.stageQuorumLabels[:0]
	c.stageCommitLabels = c.stageCommitLabels[:0]
	for _, t := range s.tenants {
		c.histLabels = append(c.histLabels, exposition.Labels(
			exposition.Label("tenant", t.cfg.Name),
			exposition.Label("band", strconv.Itoa(t.cfg.Band))))
		c.stageQuorumLabels = append(c.stageQuorumLabels, exposition.Labels(
			exposition.Label("tenant", t.cfg.Name),
			exposition.Label("band", strconv.Itoa(t.cfg.Band)),
			exposition.Label("stage", "quorum")))
		c.stageCommitLabels = append(c.stageCommitLabels, exposition.Labels(
			exposition.Label("tenant", t.cfg.Name),
			exposition.Label("band", strconv.Itoa(t.cfg.Band)),
			exposition.Label("stage", "commit")))
	}
}

// Describe implements exposition.Collector.
func (c *collector) Describe(desc func(exposition.Desc)) {
	for _, d := range []exposition.Desc{
		{Name: "pramsim_serve_rounds_total", Help: "virtual serving rounds elapsed", Type: "counter"},
		{Name: "pramsim_serve_exec_rounds_total", Help: "rounds that executed at least one tenant step", Type: "counter"},
		{Name: "pramsim_serve_idle_rounds_total", Help: "rounds with nothing to schedule", Type: "counter"},
		{Name: "pramsim_serve_merged_rounds_total", Help: "executed rounds with at least one forced serial-component merge", Type: "counter"},
		{Name: "pramsim_serve_forced_merges_total", Help: "forced serial-component merges (cross-band module contention)", Type: "counter"},
		{Name: "pramsim_serve_band_overlap_tenants", Help: "tenants admitted onto a band another tenant already owns", Type: "gauge"},
		{Name: "pramsim_serve_engines", Help: "engine (shard) count K", Type: "gauge"},
		{Name: "pramsim_serve_resizes_total", Help: "online engine-count (K) transitions performed", Type: "counter"},
		{Name: "pramsim_serve_pool_last_active", Help: "shards that carried work in the most recent executed round", Type: "gauge"},
		{Name: "pramsim_serve_pool_last_components", Help: "module-connectivity components of the most recent executed round", Type: "gauge"},
		{Name: "pramsim_serve_draining", Help: "1 while admission is stopped and queues drain", Type: "gauge"},
		{Name: "pramsim_serve_tenant_steps_total", Help: "tenant steps executed", Type: "counter"},
		{Name: "pramsim_serve_tenant_submitted_total", Help: "step credits offered by the tenant's arrival process", Type: "counter"},
		{Name: "pramsim_serve_tenant_rejected_total", Help: "step credits rejected by the bounded admission queue", Type: "counter"},
		{Name: "pramsim_serve_tenant_unserved_total", Help: "step credits admitted but voided by source exhaustion", Type: "counter"},
		{Name: "pramsim_serve_tenant_queue_depth", Help: "current admission-queue depth in step credits", Type: "gauge"},
		{Name: "pramsim_serve_tenant_sim_time_total", Help: "summed simulated step time", Type: "counter"},
		{Name: "pramsim_serve_tenant_phases_total", Help: "summed quorum protocol phases", Type: "counter"},
		{Name: "pramsim_serve_tenant_stage_time_total", Help: "summed simulated step time attributed per pipeline stage (quorum retrieval vs commit update; the stages tile sim_time)", Type: "counter"},
		{Name: "pramsim_serve_round_critical_stage_time_total", Help: "summed per-round makespan attributed to the critical shard's pipeline stage (quorum retrieval vs commit update)", Type: "counter"},
		{Name: "pramsim_serve_shard_tenants", Help: "tenants placed on the shard", Type: "gauge"},
		{Name: "pramsim_serve_shard_net_cycles_total", Help: "interconnect cycles routed by the shard's mesh over its machine lifetime (MOT2D fabrics only)", Type: "counter"},
		{Name: "pramsim_serve_shard_net_hops_total", Help: "interconnect edge traversals routed by the shard's mesh over its machine lifetime (MOT2D fabrics only)", Type: "counter"},
		{Name: "pramsim_serve_tenant_step_time", Help: "simulated time per executed tenant step (power-of-two buckets)", Type: "histogram"},
		{Name: "pramsim_serve_tenant_queue_wait_rounds", Help: "virtual rounds a credit waited in the admission queue before executing", Type: "histogram"},
		{Name: "pramsim_serve_round_active_shards", Help: "shards that carried work, per executed round", Type: "histogram"},
		{Name: "pramsim_serve_round_makespan", Help: "slowest shard's simulated step time, per executed round", Type: "histogram"},
		{Name: "pramsim_serve_round_work", Help: "summed simulated step time across shards, per executed round", Type: "histogram"},
		{Name: "pramsim_serve_step_dedup_requests", Help: "post-dedup quorum request count (reads plus writes) per executed tenant step", Type: "histogram"},
	} {
		desc(d)
	}
}

// Collect implements exposition.Collector.
func (c *collector) Collect(emit func(exposition.Sample)) {
	s := c.s
	if c.labelsK != s.k {
		c.refreshLabels()
	}
	st := s.Stats()
	emit(exposition.Sample{Name: "pramsim_serve_rounds_total", Value: float64(st.Rounds)})
	emit(exposition.Sample{Name: "pramsim_serve_exec_rounds_total", Value: float64(st.ExecRounds)})
	emit(exposition.Sample{Name: "pramsim_serve_idle_rounds_total", Value: float64(st.IdleRounds)})
	emit(exposition.Sample{Name: "pramsim_serve_merged_rounds_total", Value: float64(st.MergedRounds)})
	emit(exposition.Sample{Name: "pramsim_serve_forced_merges_total", Value: float64(st.ForcedMerges)})
	emit(exposition.Sample{Name: "pramsim_serve_band_overlap_tenants", Value: float64(st.BandOverlaps)})
	emit(exposition.Sample{Name: "pramsim_serve_engines", Value: float64(s.k)})
	emit(exposition.Sample{Name: "pramsim_serve_resizes_total", Value: float64(st.Resizes)})
	emit(exposition.Sample{Name: "pramsim_serve_pool_last_active", Value: float64(s.pool.LastActive())})
	emit(exposition.Sample{Name: "pramsim_serve_pool_last_components", Value: float64(s.pool.LastComponents())})
	draining := 0.0
	if s.draining {
		draining = 1
	}
	emit(exposition.Sample{Name: "pramsim_serve_draining", Value: draining})
	for i, t := range s.tenants {
		l := c.tenantLabels[i]
		emit(exposition.Sample{Name: "pramsim_serve_tenant_steps_total", Labels: l, Value: float64(t.hStep.Count())})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_submitted_total", Labels: l, Value: float64(t.submitted)})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_rejected_total", Labels: l, Value: float64(t.rejected)})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_unserved_total", Labels: l, Value: float64(t.unserved)})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_queue_depth", Labels: l, Value: float64(t.credits)})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_sim_time_total", Labels: l, Value: float64(t.hStep.Sum())})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_phases_total", Labels: l, Value: float64(t.phases)})
	}
	for i, t := range s.tenants {
		emit(exposition.Sample{Name: "pramsim_serve_tenant_stage_time_total", Labels: c.stageQuorumLabels[i], Value: float64(t.stageQuorum)})
		emit(exposition.Sample{Name: "pramsim_serve_tenant_stage_time_total", Labels: c.stageCommitLabels[i], Value: float64(t.hStep.Sum() - t.stageQuorum)})
	}
	emit(exposition.Sample{Name: "pramsim_serve_round_critical_stage_time_total",
		Labels: exposition.Label("stage", "quorum"), Value: float64(st.CritQuorumTime)})
	emit(exposition.Sample{Name: "pramsim_serve_round_critical_stage_time_total",
		Labels: exposition.Label("stage", "commit"), Value: float64(st.CritCommitTime)})
	for sh := 0; sh < s.k; sh++ {
		emit(exposition.Sample{Name: "pramsim_serve_shard_tenants", Labels: c.shardLabels[sh], Value: float64(len(s.byShard[sh]))})
	}
	// Raw fabric counters, per shard machine (satellite of the span work):
	// cumulative over the shard MACHINE's lifetime — a shard retired by a
	// shrink drops its series, and a later grow starts the id over at
	// zero. Only cycle-timed meshes have them; the bipartite fabric emits
	// none.
	for sh := 0; sh < s.k; sh++ {
		nw := s.nets[sh]
		if nw == nil {
			continue
		}
		fst := nw.Stats()
		emit(exposition.Sample{Name: "pramsim_serve_shard_net_cycles_total", Labels: c.shardLabels[sh], Value: float64(fst.Cycles)})
		emit(exposition.Sample{Name: "pramsim_serve_shard_net_hops_total", Labels: c.shardLabels[sh], Value: float64(fst.Hops)})
	}
	for i, t := range s.tenants {
		exposition.EmitHistogram(emit, "pramsim_serve_tenant_step_time", c.histLabels[i], t.hStep)
		exposition.EmitHistogram(emit, "pramsim_serve_tenant_queue_wait_rounds", c.histLabels[i], t.hWait)
	}
	exposition.EmitHistogram(emit, "pramsim_serve_round_active_shards", "", s.hRoundActive)
	exposition.EmitHistogram(emit, "pramsim_serve_round_makespan", "", s.hRoundMakespan)
	exposition.EmitHistogram(emit, "pramsim_serve_round_work", "", s.hRoundWork)
	exposition.EmitHistogram(emit, "pramsim_serve_step_dedup_requests", "", s.hDedup)
}
