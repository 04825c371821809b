package serve

import (
	"fmt"

	"repro/internal/exposition"
)

// AutoscaleConfig tunes the serving-lane autoscaler. The zero value is a
// usable policy: K ∈ [1, Bands] and 16-round decision windows.
type AutoscaleConfig struct {
	// Min and Max bound K. Min 0 → 1. Max 0 → the server's band count —
	// shards beyond the band count can never receive a tenant, so growing
	// past it only adds idle machines; an explicit Max is clamped to it too.
	Min, Max int
	// Interval is the decision window in observed rounds (0 → 16): signals
	// accumulate over the window and at most one resize fires per window.
	Interval int
}

// The autoscaler's fixed thresholds.
const (
	// cooldownWindows is how many full windows to sit out after a resize,
	// letting queues re-equilibrate before the next decision.
	cooldownWindows = 1
	// queueHighFrac is the average queue-fill fraction (queued credits
	// over total queue capacity) that triggers growth. Shrinking requires
	// the fill to stay under a quarter of this.
	queueHighFrac = 0.5
	// mergeBlockFrac blocks growth when at least this fraction of the
	// window's executed rounds forced serial-component merges: merge
	// pressure means the mix is not component-parallel, and more engines
	// cannot help a workload that keeps collapsing into one component.
	mergeBlockFrac = 0.5
)

// Autoscaler closes the serving loop: it watches the degradation signals
// the server already counts — rejections, queue depth, pool occupancy,
// forced serial merges — and grows or shrinks the engine count K online
// via Server.Resize. A server built with Config.Autoscale owns one and
// passes it every round it runs while admission is open. Its decisions are
// a pure function of the round stream, so a replay of the arrival script
// makes them again. Observing a round allocates nothing except on the
// rounds it resizes.
type Autoscaler struct {
	s   *Server
	cfg AutoscaleConfig

	// Window accumulators.
	rounds   int
	queueSum int64
	capSum   int64

	// Snapshots of the server's monotone counters at the window start.
	lastRejected   int64
	lastExecRounds int64
	lastActive     int64 // hRoundActive's sum: idle rounds add nothing
	lastMergedR    int64

	cooldown int
	grows    int64
	shrinks  int64
}

// newAutoscaler binds an autoscaler to a server, normalizing the config.
func newAutoscaler(s *Server, cfg AutoscaleConfig) *Autoscaler {
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < 1 || cfg.Max > s.Bands() {
		cfg.Max = s.Bands()
	}
	if cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Interval < 1 {
		cfg.Interval = 16
	}
	a := &Autoscaler{s: s, cfg: cfg}
	a.snapshot()
	return a
}

// snapshot pins the monotone-counter baselines for a new window.
func (a *Autoscaler) snapshot() {
	a.lastRejected = a.rejectedTotal()
	a.lastExecRounds = a.s.hRoundMakespan.Count()
	a.lastActive = a.s.hRoundActive.Sum()
	a.lastMergedR = a.s.mergedRounds
}

// rejectedTotal sums the per-tenant rejection counters.
func (a *Autoscaler) rejectedTotal() int64 {
	var r int64
	for _, t := range a.s.tenants {
		r += t.rejected
	}
	return r
}

// Grows and Shrinks report the lifetime resize decisions by direction.
func (a *Autoscaler) Grows() int64   { return a.grows }
func (a *Autoscaler) Shrinks() int64 { return a.shrinks }

// Config returns the normalized policy (for banners and diagnostics).
func (a *Autoscaler) Config() AutoscaleConfig { return a.cfg }

// observe folds one completed round into the window and, at window end,
// decides, resizing the server when the policy says so.
func (a *Autoscaler) observe() {
	s := a.s
	a.rounds++
	for _, t := range s.tenants {
		a.queueSum += int64(t.credits)
		a.capSum += int64(t.cap)
	}
	if a.rounds < a.cfg.Interval {
		return
	}

	rejDelta := a.rejectedTotal() - a.lastRejected
	execDelta := s.hRoundMakespan.Count() - a.lastExecRounds
	activeSum := s.hRoundActive.Sum() - a.lastActive
	mergedDelta := s.mergedRounds - a.lastMergedR
	queueFrac := 0.0
	if a.capSum > 0 {
		queueFrac = float64(a.queueSum) / float64(a.capSum)
	}
	avgActive := float64(activeSum) / float64(a.rounds)
	mergeFrac := 0.0
	if execDelta > 0 {
		mergeFrac = float64(mergedDelta) / float64(execDelta)
	}

	a.rounds, a.queueSum, a.capSum = 0, 0, 0
	a.snapshot()
	if a.cooldown > 0 {
		a.cooldown--
		return
	}

	k := s.k
	// decision records the verdict AND its full window inputs into the
	// event log — the audit trail that answers WHY the autoscaler resized
	// (or deliberately held), reproduced bit-for-bit by replay.
	decision := func(to int) {
		s.events.push(Event{Kind: KindDecision, Round: s.round, Start: s.events.Now(),
			K: int32(k), To: int32(to),
			A: rejDelta, B: execDelta, C: mergedDelta,
			F1: queueFrac, F2: avgActive, F3: mergeFrac})
	}
	// Grow on admission pressure — rejections or persistently deep queues —
	// unless the window's merge rate says the mix cannot use more lanes.
	if (rejDelta > 0 || queueFrac >= queueHighFrac) && k < a.cfg.Max {
		if mergeFrac >= mergeBlockFrac {
			decision(0) // the withheld grow: pressure was there, parallelism was not
			if s.logf != nil {
				s.logf("serve: autoscaler holding K=%d under pressure: %.0f%% of rounds forced serial merges (cross-band mix)", k, 100*mergeFrac)
			}
			return
		}
		nk := k * 2
		if nk > a.cfg.Max {
			nk = a.cfg.Max
		}
		decision(nk)
		s.Resize(nk)
		a.grows++
		a.cooldown = cooldownWindows
		return
	}
	// Shrink on sustained low occupancy with no admission pressure.
	if k > a.cfg.Min && avgActive*2 <= float64(k) && rejDelta == 0 && queueFrac*4 < queueHighFrac {
		nk := k / 2
		if nk < a.cfg.Min {
			nk = a.cfg.Min
		}
		decision(nk)
		s.Resize(nk)
		a.shrinks++
		a.cooldown = cooldownWindows
	}
}

// autoscaleCollector exposes the autoscaler's decision counters and
// bounds; Server.Metrics registers it next to the server's collector.
type autoscaleCollector struct{ a *Autoscaler }

func (c autoscaleCollector) Describe(desc func(exposition.Desc)) {
	desc(exposition.Desc{Name: "pramsim_serve_autoscale_grows_total", Help: "autoscaler grow decisions", Type: "counter"})
	desc(exposition.Desc{Name: "pramsim_serve_autoscale_shrinks_total", Help: "autoscaler shrink decisions", Type: "counter"})
	desc(exposition.Desc{Name: "pramsim_serve_autoscale_k_min", Help: "autoscaler K lower bound", Type: "gauge"})
	desc(exposition.Desc{Name: "pramsim_serve_autoscale_k_max", Help: "autoscaler K upper bound", Type: "gauge"})
}

func (c autoscaleCollector) Collect(emit func(exposition.Sample)) {
	emit(exposition.Sample{Name: "pramsim_serve_autoscale_grows_total", Value: float64(c.a.grows)})
	emit(exposition.Sample{Name: "pramsim_serve_autoscale_shrinks_total", Value: float64(c.a.shrinks)})
	emit(exposition.Sample{Name: "pramsim_serve_autoscale_k_min", Value: float64(c.a.cfg.Min)})
	emit(exposition.Sample{Name: "pramsim_serve_autoscale_k_max", Value: float64(c.a.cfg.Max)})
}

// String summarizes the policy for run banners.
func (c AutoscaleConfig) String() string {
	return fmt.Sprintf("K∈[%d,%d] window=%d cooldown=%d queue≥%.2f merge-block≥%.2f",
		c.Min, c.Max, c.Interval, cooldownWindows, queueHighFrac, mergeBlockFrac)
}
