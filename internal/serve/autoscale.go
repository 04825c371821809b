package serve

import (
	"fmt"

	"repro/internal/prom"
)

// AutoscaleConfig tunes the serving-lane autoscaler. The zero value is a
// usable policy: K ∈ [1, Bands], 16-round decision windows, one-window
// cooldown, grow at half-full queues, block growth when half the window's
// executed rounds forced serial merges.
type AutoscaleConfig struct {
	// Min and Max bound K. Min 0 → 1. Max 0 → the server's band count —
	// shards beyond the band count can never receive a tenant, so growing
	// past it only burns goroutines; an explicit Max is clamped to it too.
	Min, Max int
	// Interval is the decision window in observed rounds (0 → 16): signals
	// accumulate over the window and at most one resize fires per window.
	Interval int
	// Cooldown is how many full windows to sit out after a resize (0 → 1),
	// letting queues re-equilibrate before the next decision.
	Cooldown int
	// QueueHighFrac is the average queue-fill fraction (queued credits over
	// total queue capacity) that triggers growth (0 → 0.5). Shrinking
	// requires the fill to stay under a quarter of this.
	QueueHighFrac float64
	// MergeBlockFrac blocks growth when at least this fraction of the
	// window's executed rounds forced serial-component merges (0 → 0.5):
	// merge pressure means the mix is not component-parallel, and more
	// engines cannot help a workload that keeps collapsing into one
	// component.
	MergeBlockFrac float64
}

// Autoscaler closes the serving loop: it watches the degradation signals
// the server already counts — rejections, queue depth, pool occupancy
// (LastActive), forced serial merges — and grows or shrinks the engine
// count K online via Server.Resize. Decisions are a deterministic pure
// function of the observed round stream, so a recorded (arrival script,
// resize rounds) pair replays bit-for-bit; live HTTP mode records the
// RESIZES it performed rather than re-running this policy at replay time
// (see the package doc's rejection-determinism caveat).
//
// Drive it from the serving goroutine: call Observe after every Round.
// Observe is allocation-free except on the rounds it actually resizes.
type Autoscaler struct {
	s   *Server
	cfg AutoscaleConfig

	// Window accumulators.
	rounds    int
	activeSum int64
	queueSum  int64
	capSum    int64

	// Snapshots of the server's monotone counters at the window start.
	lastRejected   int64
	lastExecRounds int64
	lastMergedR    int64

	// prevExec distinguishes executed rounds from idle ones per Observe
	// call: the pool's LastActive census is stale on idle rounds, which
	// must count as zero occupancy or an idle server never scales down.
	prevExec int64

	cooldown int
	grows    int64
	shrinks  int64
}

// NewAutoscaler binds an autoscaler to a server, normalizing the config.
func NewAutoscaler(s *Server, cfg AutoscaleConfig) *Autoscaler {
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < 1 || cfg.Max > s.bands {
		cfg.Max = s.bands
	}
	if cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Interval < 1 {
		cfg.Interval = 16
	}
	if cfg.Cooldown < 1 {
		cfg.Cooldown = 1
	}
	if cfg.QueueHighFrac <= 0 {
		cfg.QueueHighFrac = 0.5
	}
	if cfg.MergeBlockFrac <= 0 {
		cfg.MergeBlockFrac = 0.5
	}
	a := &Autoscaler{s: s, cfg: cfg, prevExec: s.execRounds}
	a.snapshot()
	return a
}

// snapshot pins the monotone-counter baselines for a new window.
func (a *Autoscaler) snapshot() {
	a.lastRejected = a.rejectedTotal()
	a.lastExecRounds = a.s.execRounds
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

// Observe folds one completed round into the window and, at window end,
// decides. It returns the new K when it resized and 0 otherwise.
func (a *Autoscaler) Observe() int {
	s := a.s
	a.rounds++
	if s.execRounds != a.prevExec {
		a.activeSum += int64(s.pool.LastActive())
		a.prevExec = s.execRounds
	}
	for _, t := range s.tenants {
		a.queueSum += int64(t.credits)
		a.capSum += int64(t.cap)
	}
	if a.rounds < a.cfg.Interval {
		return 0
	}

	rejDelta := a.rejectedTotal() - a.lastRejected
	execDelta := s.execRounds - a.lastExecRounds
	mergedDelta := s.mergedRounds - a.lastMergedR
	queueFrac := 0.0
	if a.capSum > 0 {
		queueFrac = float64(a.queueSum) / float64(a.capSum)
	}
	avgActive := float64(a.activeSum) / float64(a.rounds)
	mergeFrac := 0.0
	if execDelta > 0 {
		mergeFrac = float64(mergedDelta) / float64(execDelta)
	}

	a.rounds, a.activeSum, a.queueSum, a.capSum = 0, 0, 0, 0
	a.snapshot()
	if a.cooldown > 0 {
		a.cooldown--
		return 0
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
	if (rejDelta > 0 || queueFrac >= a.cfg.QueueHighFrac) && k < a.cfg.Max {
		if mergeFrac >= a.cfg.MergeBlockFrac {
			decision(0) // the withheld grow: pressure was there, parallelism was not
			if s.logf != nil {
				s.logf("serve: autoscaler holding K=%d under pressure: %.0f%% of rounds forced serial merges (cross-band mix)", k, 100*mergeFrac)
			}
			return 0
		}
		nk := k * 2
		if nk > a.cfg.Max {
			nk = a.cfg.Max
		}
		decision(nk)
		s.Resize(nk)
		a.grows++
		a.cooldown = a.cfg.Cooldown
		return nk
	}
	// Shrink on sustained low occupancy with no admission pressure.
	if k > a.cfg.Min && avgActive*2 <= float64(k) && rejDelta == 0 && queueFrac*4 < a.cfg.QueueHighFrac {
		nk := k / 2
		if nk < a.cfg.Min {
			nk = a.cfg.Min
		}
		decision(nk)
		s.Resize(nk)
		a.shrinks++
		a.cooldown = a.cfg.Cooldown
		return nk
	}
	return 0
}

// Metrics registers the autoscaler's decision counters with a registry.
func (a *Autoscaler) Metrics(reg *prom.Registry) {
	reg.Register(autoscaleCollector{a})
}

type autoscaleCollector struct{ a *Autoscaler }

func (c autoscaleCollector) Describe(desc func(prom.Desc)) {
	desc(prom.Desc{Name: "pramsim_serve_autoscale_grows_total", Help: "autoscaler grow decisions", Type: "counter"})
	desc(prom.Desc{Name: "pramsim_serve_autoscale_shrinks_total", Help: "autoscaler shrink decisions", Type: "counter"})
	desc(prom.Desc{Name: "pramsim_serve_autoscale_k_min", Help: "autoscaler K lower bound", Type: "gauge"})
	desc(prom.Desc{Name: "pramsim_serve_autoscale_k_max", Help: "autoscaler K upper bound", Type: "gauge"})
}

func (c autoscaleCollector) Collect(emit func(prom.Sample)) {
	emit(prom.Sample{Name: "pramsim_serve_autoscale_grows_total", Value: float64(c.a.grows)})
	emit(prom.Sample{Name: "pramsim_serve_autoscale_shrinks_total", Value: float64(c.a.shrinks)})
	emit(prom.Sample{Name: "pramsim_serve_autoscale_k_min", Value: float64(c.a.cfg.Min)})
	emit(prom.Sample{Name: "pramsim_serve_autoscale_k_max", Value: float64(c.a.cfg.Max)})
}

// String summarizes the policy for run banners.
func (c AutoscaleConfig) String() string {
	return fmt.Sprintf("K∈[%d,%d] window=%d cooldown=%d queue≥%.2f merge-block≥%.2f",
		c.Min, c.Max, c.Interval, c.Cooldown, c.QueueHighFrac, c.MergeBlockFrac)
}
