// Package serve is the multi-tenant serving front end over quorum.Pool.
// It admits step credits from per-tenant sources (synthetic generators
// over the replay package's patterns, or recorded PRAMTRC1 traces),
// queues them behind bounded per-tenant admission queues, and schedules
// them onto a pool of K quorum engines. Each tenant owns one variable
// band of a memmap.GenerateBanded image and is pinned to shard band%K, so
// co-scheduled tenants touch disjoint module bands and the pool's census
// finds no forced merge. K sets how many tenant steps one virtual round
// co-schedules (a round costs its slowest step); every round runs on the
// calling goroutine.
//
// # Determinism
//
// A serving run is a pure function of (map seed, tenant specs, arrival
// script): rounds advance a virtual counter, arrivals are arithmetic in
// it, and the scheduler is a deterministic round-robin per shard. The map
// is banded by the tenant count, not by K, and band-local tenants write
// only their own rows, so per-tenant StepReports and the final store
// fingerprint are also invariant across K (TestServeDeterministic). The
// exception is backpressure: rejection counts depend on how fast queues
// drain, so a mix that overflows its queues is deterministic per (K
// schedule, arrival script) but not across K.
//
// # Backpressure and degradation
//
// An arrival beyond a queue's cap is rejected and counted (Rejected),
// never dropped or blocked on. Admitting a tenant onto a band another
// tenant owns bumps BandOverlaps, and a round whose batches collide on a
// module counts its forced merges (ForcedMerges, from the pool's census).
// Both fire the optional Logf hook once.
//
// # Resizing
//
// Server.Resize changes K online: the pool adds or retires shard machines
// and every tenant re-bands to shard band%K, with no data movement and no
// accounting reset, so submitted == steps + queue + rejected + unserved
// holds through every transition. With Config.Autoscale set, Round hands
// every round it runs while admission is open to the Autoscaler, which
// drives Resize from the degradation signals (forced merges, occupancy,
// queue depth, rejection rate). Because per-tenant results are
// K-invariant, a resize changes only occupancy and the round schedule,
// and for an overflowing mix the split between served and rejected
// credits.
//
// # Recording
//
// StartTrace records the executed steps (PRAMTRC1), in the order they
// ran, which `replay verify` replays bit for bit. StartScript records
// the arrival script (PRAMARS1): one line per Submit, Resize and
// StopAdmission, and StopScript's footer. PlayScript replays a script on
// a fresh server from the same Config, whose autoscaler repeats the live
// decisions, so a replay that records again writes the same bytes.
//
// # Observability
//
// Every measurement is in virtual time and a pure function of (seed,
// specs, script), so two runs of a deployment produce identical telemetry
// and `serve replay` reproduces a live run's.
//
//   - Histograms (exposition.Histogram) of per-tenant step time and queue
//     wait, per-round makespan, summed work and active shards, and
//     post-dedup batch sizes (Pool.LastDedupRequests), rendered on
//     /metrics. For finite mixes served to completion the step-time and
//     batch-size families are K-invariant; the others follow the round
//     schedule and are replay-invariant only.
//   - The event log (EventLog), one fixed-size ring per server: admission
//     events (submissions, rejections, resizes, the drain, autoscaler
//     decisions with their window inputs) and the pipeline stages of every
//     executed round (queue wait, scheduling, the component partition,
//     each step's quorum and commit legs, per-shard routing, the report
//     merge), stamped on a clock that advances by each round's makespan.
//     Server.WriteEvents, GET /debug/events and `serve run -record-events`
//     write it as the event dump (Chrome/Perfetto JSON), which counts what
//     the ring dropped.
//   - Stage counters: lifetime quorum time per tenant and on each round's
//     critical shard; commit time is the step-time or makespan histogram's
//     sum minus it. The per-tenant split is K-invariant for finite mixes,
//     the critical-path split replay-invariant only.
//   - The wall clock stays in http.go, where HTTPOptions.Pprof can mount
//     the stdlib /debug/pprof/* handlers.
//
// The per-round path — admission, scheduling, pool execution, accounting,
// histogram observation and event recording — allocates nothing in
// steady state (TestServeRoundZeroAllocs, TestSubmitZeroAllocs,
// TestEventPushZeroAllocs).
package serve

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exposition"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/replay"
)

// Band is one tenant's slice of the variable space: the half-open range
// [Lo, Hi) of the server's Mem variables the tenant should address.
// Factories for global (deliberately cross-band) traffic may ignore it.
type Band struct {
	Lo, Hi int
	Mem    int
}

// Span returns the band's width.
func (b Band) Span() int { return b.Hi - b.Lo }

// Source yields one tenant's step batches in submission order.
type Source interface {
	// Procs returns the width of the batches NextBatch yields (the
	// tenant's simulated P-RAM size).
	Procs() int
	// NextBatch returns the tenant's next step batch, or false when the
	// source is exhausted. The batch may alias source-owned scratch and
	// the server may mutate it in place before executing it.
	NextBatch() (model.Batch, bool)
	// Err reports the failure that ended the stream early, nil for a
	// clean end.
	Err() error
}

// SourceFactory binds a tenant's traffic source to its assigned band at
// server construction time.
type SourceFactory func(b Band) Source

// Arrival is a deterministic arrival process in virtual round time.
// Window > 0 selects CLOSED-LOOP operation: the tenant keeps Window step
// credits outstanding (replenished every round, never rejected — the
// W-users-resubmit-on-completion model). Window == 0 selects OPEN-LOOP
// operation: every Period rounds a burst of Burst credits arrives,
// regardless of completion, and credits beyond the queue cap are
// rejected; On/Off > 0 additionally gate the process into on/off phases
// of that many rounds (the bursty shape). External disables autonomous
// arrivals entirely: credits enter only through Server.Submit — the live
// HTTP admission mode, where the arrival process is the outside world and
// determinism comes from recording it as a script. The zero value (with
// External false) defaults to closed-loop with a window of 1; an EXPLICIT
// open-loop request needs Period or Burst > 0 — cmd/serve's parser rejects
// `open:0:0` rather than let it silently degrade to that default.
type Arrival struct {
	Window   int
	Period   int
	Burst    int
	On       int
	Off      int
	External bool
}

// arrivals returns how many credits arrive at virtual round r.
func (a Arrival) arrivals(r int64, credits int) int {
	if a.External {
		return 0
	}
	// Closed loop: an explicit Window, or the FULL zero value. A struct
	// with any open-loop field set (even a degenerate zero Period/Burst
	// with On/Off shaping) meant open loop and must not fall back here.
	if a.Window > 0 || (a.Period == 0 && a.Burst == 0 && a.On == 0 && a.Off == 0) {
		w := a.Window
		if w == 0 {
			w = 1
		}
		if credits >= w {
			return 0
		}
		return w - credits
	}
	period := int64(a.Period)
	if period < 1 {
		period = 1
	}
	burst := a.Burst
	if burst < 1 {
		burst = 1
	}
	if cycle := int64(a.On + a.Off); a.On > 0 && cycle > 0 && r%cycle >= int64(a.On) {
		return 0
	}
	if r%period != 0 {
		return 0
	}
	return burst
}

// TenantConfig declares one tenant of a serving mix.
type TenantConfig struct {
	// Name labels the tenant in metrics and summaries.
	Name string
	// Band is the variable band this tenant owns, in [0, Config.Bands).
	Band int
	// Procs is the tenant's simulated P-RAM size (its batches' width).
	Procs int
	// Source builds the tenant's traffic stream.
	Source SourceFactory
	// Arrival is the tenant's submission process.
	Arrival Arrival
}

// Config assembles a serving deployment. NewServer maps it onto one
// core.Spec — Kind = Interconnect, Lanes = Bands, Procs = the largest
// tenant's — with the serving defaults below, and builds its pool with
// core.Spec.BuildPool(Engines).
type Config struct {
	// Tenants is the workload mix. At least one.
	Tenants []TenantConfig
	// Bands is how many variable bands the map is cut into (0 → one per
	// tenant). Must be ≥ every tenant's Band+1. StartTrace needs one band
	// per tenant: its header is the deployment's core.Spec, with Lanes =
	// Bands.
	Bands int
	// Engines is the pool's engine count K (0 → 1; negative is an error).
	Engines int
	// Mode is the conflict convention. The zero value selects
	// CRCW-Priority: a multi-tenant front end serves arbitrary concurrent
	// traffic, and an exclusivity discipline would make every hotspot or
	// broadcast step allocate a violation error on the hot path. Set an
	// explicit stricter mode only for mixes known to respect it.
	Mode model.Mode
	// Seed draws the memory map (0 → 1).
	Seed int64
	// Interconnect selects each shard's fabric: core.KindDMMPC (the zero
	// value) gives every shard the complete bipartite processor–module
	// graph, with contention-free unit-cost phases; core.KindMOT2D gives
	// every shard its OWN √M × √M two-dimensional mesh of trees with
	// modules at the leaves (the paper's Theorem 3 machine), whose phase
	// costs are routed cycle counts.
	Interconnect core.Kind
	// KExp is the memory exponent m = n^KExp at n = nMax·Bands: Lemma 2's
	// k on the bipartite fabric (0 → 2), Theorem 3's on meshes (0 → 1.5).
	// The bipartite pool always uses Lemma 2's default ε = 1.
	KExp float64
	// Gran is the Theorem 3 granularity exponent δ for meshes (0 → 1.5;
	// unused on the bipartite fabric): the grid side is
	// ceilPow2((nMax·Bands)^((1+δ)/2)), so bigger mixes need a smaller δ
	// to stay inside mot.MaxSide.
	Gran float64
	// DualRail enables the row+column dual-rail banks on meshes (Theorem
	// 3's closing remark; halves the redundancy).
	DualRail bool
	// AllowTraceKindMismatch admits trace sources whose recorded header
	// names a different machine kind than the pool's interconnect (the
	// addresses still remap fine; the recorded cycle counts just came from
	// a different fabric). Off by default: a mismatch is an error.
	AllowTraceKindMismatch bool
	// QueueCap is every tenant's admission-queue capacity in step credits
	// (0 → 8).
	QueueCap int
	// Autoscale, when non-nil, is the policy of the server's autoscaler:
	// Round passes it every round it runs while admission is open, and it
	// resizes the pool (see Autoscaler). Nil keeps K fixed.
	Autoscale *AutoscaleConfig
	// EventDepth sizes the event log's ring (0 → 4096 events). The ring
	// keeps the most recent events and counts what it overwrote. One
	// executed round records 3 + 4·(active shards) stage events plus its
	// admission events, so the default keeps a few hundred recent rounds
	// at small K. The depth is NOT part of the recorded arrival script: a
	// live capture and its replay must agree on it for the
	// `serve replay -events` byte-compare, so both sides rely on the same
	// config default.
	EventDepth int
	// Logf, when non-nil, receives one-shot degradation warnings (band
	// overlap at admission, first forced merge, source failures). It is
	// never called on the steady-state path.
	Logf func(format string, args ...any)
}

// tenant is the server-side state of one admitted tenant.
type tenant struct {
	cfg   TenantConfig
	id    int
	shard int
	band  Band
	src   Source
	cap   int

	credits int
	done    bool

	// Accounting (exported via TenantStats; steps and step time are hStep's).
	submitted int64
	rejected  int64
	unserved  int64
	maxQueue  int
	phases    int64
	copies    int64
	cycles    int64
	maxCont   int
	errSteps  int64
	hash      uint64
	srcErr    error

	// Queue-wait tracking: a FIFO ring of admission rounds, one entry per
	// queued credit (capacity = the tenant's queue cap, so it can never
	// overflow). Popping on execution yields the credit's wait in virtual
	// rounds, observed into hWait.
	waitRing []int64
	waitHead int
	waitLen  int

	// Per-tenant distributions (virtual time; K-invariant for
	// finite mixes run to completion, see the package doc).
	hStep *exposition.Histogram // per-step simulated time
	hWait *exposition.Histogram // queue wait in rounds per executed credit

	// stageQuorum is the retrieval (quorum) leg of the tenant's summed
	// step time; the update (commit) leg is hStep's sum minus it.
	stageQuorum int64
}

// pushWait records one admitted credit's admission round.
//
//pram:hotpath
func (t *tenant) pushWait(r int64) {
	t.waitRing[(t.waitHead+t.waitLen)%len(t.waitRing)] = r
	t.waitLen++
}

// popWait removes the oldest queued credit's admission round.
//
//pram:hotpath
func (t *tenant) popWait() int64 {
	r := t.waitRing[t.waitHead]
	t.waitHead = (t.waitHead + 1) % len(t.waitRing)
	t.waitLen--
	return r
}

// Server multiplexes the tenant mix onto the engine pool. All methods must
// be called from one goroutine, which also runs every round's pool steps.
type Server struct {
	pool *quorum.Pool
	// built is the deployment's machine spec (Lanes = Bands, Procs = the
	// largest tenant's), its store and its parameter point; StartTrace
	// writes it as the trace header.
	built *core.Built
	k     int

	tenants []*tenant
	byShard [][]int // tenant ids per shard, in admission order
	cursor  []int   // per-shard round-robin position

	batches    []model.Batch
	execTenant []int32
	empty      model.Batch

	round    int64 // virtual admission clock (advances every Round)
	draining bool

	// Serving counters (exported via Stats, which counts executed rounds in hRoundMakespan).
	mergedRounds int64
	forcedMerges int64
	bandOverlaps int64
	resizes      int64

	as     *Autoscaler            // nil unless Config.Autoscale
	rec    *replay.Recorder       // live trace capture (tenant-lane), nil when off
	script *replay.ScriptRecorder // live arrival-script capture, nil when off

	// Observability (see the package doc): the event log and the
	// server-wide round distributions (all virtual-time; observation is
	// allocation-free).
	events         *EventLog
	hRoundActive   *exposition.Histogram // active shards per executed round
	hRoundMakespan *exposition.Histogram // max shard step time per executed round
	hRoundWork     *exposition.Histogram // summed shard step time per executed round
	hDedup         *exposition.Histogram // post-dedup requests per executed step

	// Per-shard scratch the stage events read. nets/netPrev cache each
	// shard's mesh handle and fabric counter baseline (nil/zero on the
	// bipartite fabric) for the route events' cycle/hop deltas;
	// waitScratch holds the wait (in rounds) of the credit each shard
	// scheduled this round; critQuorum accumulates the quorum leg of every
	// round's makespan (the commit leg is hRoundMakespan's sum minus it).
	nets        []*mot.Network
	netPrev     []mot.Stats
	waitScratch []int64
	critQuorum  int64

	logf        func(string, ...any)
	loggedMerge bool
}

// Histogram bucket counts (finite power-of-two buckets; see exposition.Histogram).
// Fixed at construction so bucket layouts — part of the exposition — never
// depend on K or the traffic observed.
const (
	stepTimeBuckets   = 24 // per-step simulated time (cycles on meshes)
	queueWaitBuckets  = 16 // queue wait in rounds
	occupancyBuckets  = 8  // active shards per round
	roundCostBuckets  = 24 // per-round makespan/work
	dedupBuckets      = 16 // post-dedup requests per step
	defaultEventDepth = 4096
)

// NewServer builds the deployment through core.Spec.BuildPool: a Lemma 2
// (bipartite) or Theorem 3 (mesh) parameter point at maxProcs·Bands total
// processors, a map banded by the TENANT band count (K-invariant, see the
// package doc), one store, and a K-engine pool whose machines are sized to
// the largest tenant — tenants with smaller Procs simply leave the upper
// processors idle, so lanes of uneven sizes multiplex onto one pool.
// Infeasible parameter points surface as errors, not panics.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	bands := cfg.Bands
	if bands == 0 {
		bands = len(cfg.Tenants)
	}
	nMax := 0
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		if t.Procs < 1 {
			return nil, fmt.Errorf("serve: tenant %q: Procs=%d < 1", t.Name, t.Procs)
		}
		if t.Band < 0 || t.Band >= bands {
			return nil, fmt.Errorf("serve: tenant %q: band %d outside [0,%d)", t.Name, t.Band, bands)
		}
		if t.Source == nil {
			return nil, fmt.Errorf("serve: tenant %q: no source", t.Name)
		}
		if t.Procs > nMax {
			nMax = t.Procs
		}
	}
	spec := core.Spec{Kind: cfg.Interconnect, Lanes: bands, Procs: nMax, Mode: cfg.Mode, Seed: cfg.Seed,
		KExp: cfg.KExp, DualRail: cfg.DualRail}
	if spec.Mode == model.EREW {
		spec.Mode = model.CRCWPriority
	}
	if spec.Kind == core.KindMOT2D {
		spec.Gran = cfg.Gran
		if spec.KExp == 0 {
			// Meshes pay side = (nTotal·m-granularity)^((1+δ)/2) in silicon;
			// the Theorem 3 experiments run m = n^1.5 at production sizes.
			spec.KExp = 1.5
		}
		if spec.Gran == 0 {
			spec.Gran = 1.5
		}
	}
	// The map is banded by the TENANT band count, so per-tenant results
	// stay K-invariant; the pool's K shards each get their own
	// interconnect.
	built, err := spec.BuildPool(cfg.Engines)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	pool := built.Pool
	k := pool.Engines()
	s := &Server{
		pool:       pool,
		built:      built,
		k:          k,
		byShard:    make([][]int, k),
		cursor:     make([]int, k),
		batches:    make([]model.Batch, k),
		execTenant: make([]int32, k),
		logf:       cfg.Logf,
	}
	depth := cfg.EventDepth
	if depth == 0 {
		depth = defaultEventDepth
	}
	s.events = newEventLog(depth)
	s.waitScratch = make([]int64, k)
	s.refreshNets()
	s.hRoundActive = exposition.NewHistogram(occupancyBuckets)
	s.hRoundMakespan = exposition.NewHistogram(roundCostBuckets)
	s.hRoundWork = exposition.NewHistogram(roundCostBuckets)
	s.hDedup = exposition.NewHistogram(dedupBuckets)
	qcap := cfg.QueueCap
	if qcap == 0 {
		qcap = 8
	}
	bandOwner := make(map[int]string, bands)
	for i := range cfg.Tenants {
		tc := cfg.Tenants[i]
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tenant%d", i)
		}
		lo, hi := memmap.BandRange(tc.Band, built.Params.Mem, bands)
		t := &tenant{
			cfg:   tc,
			id:    i,
			shard: tc.Band % k,
			band:  Band{Lo: lo, Hi: hi, Mem: built.Params.Mem},
			cap:   qcap,
		}
		// A closed-loop window is itself a queue bound: the tenant never
		// holds more than Window credits. Clipping the window at a smaller
		// cap would reject replenishments every round — against the
		// Arrival contract — so the effective cap accommodates it.
		if tc.Arrival.Window > t.cap {
			t.cap = tc.Arrival.Window
		}
		t.src = tc.Source(t.band)
		if t.src.Procs() > tc.Procs {
			return nil, fmt.Errorf("serve: tenant %q: source procs %d exceed declared %d",
				tc.Name, t.src.Procs(), tc.Procs)
		}
		if ts, ok := t.src.(*traceSource); ok && ts.Spec().Kind != spec.Kind {
			// Header-validate recorded traces against the pool's fabric: a
			// PRAMTRC1 stream names the machine kind it was captured on, and
			// replaying e.g. a bipartite capture into mesh shards silently
			// changes what the recorded stream meant. Addresses remap fine
			// either way, so a config flag can override.
			if !cfg.AllowTraceKindMismatch {
				return nil, fmt.Errorf(
					"serve: tenant %q: trace was recorded on a %v machine but the pool serves %v interconnects; set AllowTraceKindMismatch (cmd/serve -allow-kind-mismatch) to replay it anyway",
					tc.Name, ts.Spec().Kind, spec.Kind)
			}
			if s.logf != nil {
				s.logf("serve: tenant %q: replaying a %v-recorded trace onto %v interconnects (kind mismatch allowed by config)",
					tc.Name, ts.Spec().Kind, spec.Kind)
			}
		}
		t.waitRing = make([]int64, t.cap)
		t.hStep = exposition.NewHistogram(stepTimeBuckets)
		t.hWait = exposition.NewHistogram(queueWaitBuckets)
		if owner, taken := bandOwner[tc.Band]; taken {
			// The silent-degradation gap: two tenants on one band always
			// serialize behind one shard queue. Count and warn — never
			// just quietly halve their throughput.
			s.bandOverlaps++
			if s.logf != nil {
				s.logf("serve: tenant %q overlaps band %d owned by %q: co-located on shard %d, steps will serialize",
					tc.Name, tc.Band, owner, t.shard)
			}
		} else {
			bandOwner[tc.Band] = tc.Name
		}
		s.tenants = append(s.tenants, t)
		s.byShard[t.shard] = append(s.byShard[t.shard], i)
	}
	if cfg.Autoscale != nil {
		s.as = newAutoscaler(s, *cfg.Autoscale)
	}
	return s, nil
}

// Engines returns the pool's engine count K.
func (s *Server) Engines() int { return s.k }

// Bands returns the map's band count.
func (s *Server) Bands() int { return s.built.Spec.Lanes }

// Side returns the per-shard mesh side on meshes (0 on the bipartite
// fabric).
func (s *Server) Side() int { return s.built.Side }

// Params returns the deployment's parameter point: Lemma 2's on the
// bipartite fabric, Theorem 3's on meshes.
func (s *Server) Params() memmap.Params { return s.built.Params }

// Pool exposes the underlying engine pool (diagnostics and tests).
func (s *Server) Pool() *quorum.Pool { return s.pool }

// Fingerprint returns the current store fingerprint — the serving run's
// committed-state digest.
func (s *Server) Fingerprint() uint64 { return s.built.Store.Fingerprint() }

// TenantID resolves a tenant name to its index (the Submit handle).
func (s *Server) TenantID(name string) (int, bool) {
	for _, t := range s.tenants {
		if t.cfg.Name == name {
			return t.id, true
		}
	}
	return 0, false
}

// Draining reports whether admission has been stopped by Drain.
func (s *Server) Draining() bool { return s.draining }

// Autoscaler returns the server's autoscaler, nil unless Config.Autoscale
// was set.
func (s *Server) Autoscaler() *Autoscaler { return s.as }

// Submit offers n step credits to tenant id's bounded admission queue —
// the external-admission path the HTTP front end maps POST /submit onto.
// It returns how many credits were accepted and how many rejected;
// rejection is counted, never silent, and a draining server or exhausted
// tenant rejects everything. The split is a deterministic function of the
// server's state, so replaying Submit's arrival-script line reproduces the
// live run's accounting exactly.
func (s *Server) Submit(id, n int) (accepted, rejected int) {
	if id < 0 || id >= len(s.tenants) {
		panic(fmt.Sprintf("serve: Submit tenant %d outside [0,%d)", id, len(s.tenants)))
	}
	if n <= 0 {
		return 0, 0
	}
	t := s.tenants[id]
	room := t.cap - t.credits
	if s.draining || t.done {
		room = 0
	}
	accepted = t.admit(n, room, s.round)
	s.events.push(Event{Kind: KindSubmit, Round: s.round, Start: s.events.Now(),
		Track: int32(id), A: int64(accepted), B: int64(n - accepted)})
	if s.script != nil {
		s.script.Submit(s.round, id, n)
	}
	return accepted, n - accepted
}

// admit is the one admission path: it offers n credits to a queue with
// room for at most room more, counts the overflow as rejected and stamps
// every accepted credit with round r for its queue wait. It returns how
// many it accepted.
//
//pram:hotpath
func (t *tenant) admit(n, room int, r int64) int {
	t.submitted += int64(n)
	accepted := min(n, room)
	t.rejected += int64(n - accepted)
	t.credits += accepted
	if t.credits > t.maxQueue {
		t.maxQueue = t.credits
	}
	for i := 0; i < accepted; i++ {
		t.pushWait(r)
	}
	return accepted
}

// Resize changes the pool's engine count K online, between rounds: the
// pool adds or retires shard machines (quorum.Pool.Resize — the store is
// module-sharded, so no data moves) and the server re-bands every tenant
// onto shard band%K, rebuilding the per-shard schedules in admission
// order with cursors at the top. Queued credits and all per-tenant
// accounting survive untouched, so the admission identity
// submitted == steps + queue + rejected + unserved holds through the
// transition. A transition is a resize event and an arrival-script line;
// a Resize to the current K is neither. Must be called between rounds,
// from the serving goroutine.
func (s *Server) Resize(k int) {
	if k < 1 {
		panic(fmt.Sprintf("serve: Resize k=%d < 1", k))
	}
	if k == s.k {
		return
	}
	prev := s.k
	s.pool.Resize(k)
	s.k = k
	s.byShard = make([][]int, k)
	s.cursor = make([]int, k)
	s.batches = make([]model.Batch, k)
	s.execTenant = make([]int32, k)
	s.waitScratch = make([]int64, k)
	s.refreshNets()
	for _, t := range s.tenants {
		t.shard = t.cfg.Band % k
		s.byShard[t.shard] = append(s.byShard[t.shard], t.id)
	}
	s.resizes++
	s.events.push(Event{Kind: KindResize, Round: s.round, Start: s.events.Now(),
		K: int32(prev), To: int32(k)})
	if s.script != nil {
		s.script.Resize(s.round, k)
	}
	if s.logf != nil {
		s.logf("serve: resized K %d -> %d (round %d, %d tenants re-banded)", prev, k, s.round, len(s.tenants))
	}
}

// refreshNets re-caches the per-shard mesh handles (nil on the bipartite
// fabric)
// and their fabric counter baselines for the route events' cycle/hop
// deltas. Shards that survive a Resize keep their machines — and with
// them their monotone fabric counters — so surviving baselines carry
// over and the deltas stay exact across transitions; shards added by a
// grow start fresh machines whose counters begin at zero.
func (s *Server) refreshNets() {
	nets := make([]*mot.Network, s.k)
	prev := make([]mot.Stats, s.k)
	for sh := 0; sh < s.k; sh++ {
		nw, ok := s.pool.ShardInterconnect(sh).(*mot.Network)
		if !ok {
			continue
		}
		nets[sh] = nw
		if sh < len(s.nets) && s.nets[sh] == nw {
			prev[sh] = s.netPrev[sh]
		}
	}
	s.nets, s.netPrev = nets, prev
}

// StartTrace begins recording the run as a PRAMTRC1 trace onto w. Lanes
// are TENANT ids, not pool shards: a translating sink renames each
// executed step's shard lane to the tenant it served, so the capture has
// a fixed lane count (the mix size) and survives online Resize — a trace
// of the workload, not of the momentary pool shape. A round lists only
// its scheduled tenants, in the shard order they ran in, then a barrier,
// so `replay verify` replays the capture bit for bit. The header is the
// deployment's spec, whose map a reader rebuilds banded Lanes ways, so
// StartTrace refuses a deployment whose band count differs from its
// tenant count. Stop with StopTrace (before reading w); only one trace
// may be active.
func (s *Server) StartTrace(w io.Writer) error {
	if s.rec != nil {
		return fmt.Errorf("serve: a trace is already being recorded")
	}
	if tenants, bands := len(s.tenants), s.built.Spec.Lanes; tenants != bands {
		return fmt.Errorf("serve: cannot trace %d tenants on %d bands: a trace has one lane per tenant and replays on a map banded once per lane",
			tenants, bands)
	}
	rec, err := replay.NewRecorder(w, s.built)
	if err != nil {
		return err
	}
	s.rec = rec
	s.pool.SetStepSink(&tenantLaneSink{s: s}) // in the recorder's place
	return nil
}

// StopTrace detaches the trace sink, writes the eof frame (step count +
// final store fingerprint) and reports the first recording error.
func (s *Server) StopTrace() error {
	if s.rec == nil {
		return nil
	}
	err := s.rec.Close()
	s.rec = nil
	return err
}

// StartScript begins recording the run's arrival script (PRAMARS1) onto w,
// with meta as its single-line deployment description. From here on
// Submit, Resize and StopAdmission each write their line. Stop with
// StopScript (before reading w); only one script may be active.
func (s *Server) StartScript(w io.Writer, meta string) error {
	if s.script != nil {
		return fmt.Errorf("serve: an arrival script is already being recorded")
	}
	rec, err := replay.NewScriptRecorder(w, meta)
	if err != nil {
		return err
	}
	s.script = rec
	return nil
}

// StopScript writes the script footer (every tenant's steps and report
// hash, the round count and the store fingerprint), detaches the recorder
// and reports the first recording error.
func (s *Server) StopScript() error {
	if s.script == nil {
		return nil
	}
	tenants := make([]replay.ScriptTenant, len(s.tenants))
	for i, t := range s.tenants {
		tenants[i] = replay.ScriptTenant{Name: t.cfg.Name, Steps: t.hStep.Count(), Hash: t.hash}
	}
	err := s.script.Close(tenants, s.round, s.Fingerprint())
	s.script = nil
	return err
}

// tenantLaneSink renames pool shard lanes to tenant lanes on the way into
// the trace recorder, reading execTenant as Round wrote it for the round
// the pool is recording.
type tenantLaneSink struct {
	s *Server
}

func (ts *tenantLaneSink) RecordStep(lane int, st quorum.DedupStep, rep model.StepReport) {
	id := ts.s.execTenant[lane]
	if id < 0 {
		return // idle shard: empty batch, nothing served
	}
	ts.s.rec.RecordStep(int(id), st, rep)
}

func (ts *tenantLaneSink) RecordLoad(lane int, base model.Addr, vals []model.Word) {
	// The serving path never calls LoadCells mid-run; a setup-time load
	// has no tenant to attribute to and is not part of the serving trace.
}

func (ts *tenantLaneSink) StepBarrier() {
	ts.s.rec.StepBarrier()
}

// Round executes one serving round — admission, band-aware scheduling (at
// most one queued step per shard, round-robin over the shard's tenants),
// one pool round, accounting — and returns how many tenant steps it
// executed (0 for an idle round, which skips the pool entirely). While
// admission is open it then passes the round to the autoscaler, if any.
//
//pram:hotpath
func (s *Server) Round() int {
	r := s.round
	s.round++
	if !s.draining {
		for _, t := range s.tenants {
			if t.done {
				continue
			}
			n := t.cfg.Arrival.arrivals(r, t.credits)
			if n == 0 {
				continue
			}
			if accepted := t.admit(n, t.cap-t.credits, r); accepted < n {
				s.events.push(Event{Kind: KindReject, Round: r, Start: s.events.Now(),
					Track: int32(t.id), A: int64(n - accepted)})
			}
		}
	}
	scheduled := 0
	for sh := 0; sh < s.k; sh++ {
		s.batches[sh] = s.empty
		s.execTenant[sh] = -1
		ts := s.byShard[sh]
		if len(ts) == 0 {
			continue
		}
		start := s.cursor[sh]
		for j := 0; j < len(ts); j++ {
			t := s.tenants[ts[(start+j)%len(ts)]]
			if t.done || t.credits == 0 {
				continue
			}
			b, ok := t.src.NextBatch()
			if !ok {
				t.done = true
				// Credits admitted beyond the source's end can never
				// execute; count them so the accounting identity
				// submitted == steps + queue + rejected + unserved holds.
				t.unserved += int64(t.credits)
				t.credits = 0
				t.waitHead, t.waitLen = 0, 0 // voided credits never observe a wait
				if err := t.src.Err(); err != nil {
					t.srcErr = err
					if s.logf != nil {
						//pram:coldalloc tenant source failure path, cold by definition
						s.logf("serve: tenant %q source failed after %d steps: %v", t.cfg.Name, t.hStep.Count(), err)
					}
				}
				continue
			}
			t.credits--
			wait := r - t.popWait()
			t.hWait.Observe(wait)
			s.waitScratch[sh] = wait
			s.batches[sh] = b
			s.execTenant[sh] = int32(t.id)
			s.cursor[sh] = (start + j + 1) % len(ts)
			scheduled++
			break
		}
	}
	if scheduled > 0 {
		s.execute(r, scheduled)
	}
	if s.as != nil && !s.draining {
		s.as.observe()
	}
	return scheduled
}

// execute runs round r's scheduled batches as one pool round and accounts
// for them: the tenants' reports, the stage events and the round
// histograms.
//
//pram:hotpath
func (s *Server) execute(r int64, scheduled int) {
	reports := s.pool.ExecuteSteps(s.batches)
	merges := s.k - s.pool.LastComponents()
	if merges > 0 {
		s.forcedMerges += int64(merges)
		s.mergedRounds++
		if s.logf != nil && !s.loggedMerge {
			s.loggedMerge = true
			//pram:coldalloc warn-once merge log, guarded by loggedMerge
			s.logf("serve: round %d forced %d serial-component merge(s): cross-band traffic is eroding the disjoint fast path (ForcedMerges counts every one)", r, merges)
		}
	}
	// Stage events (see the package doc's "Observability" section): every
	// stage of this round lands on the log's virtual clock at `base`, in a
	// fixed order — schedule, partition, then per active shard (in shard
	// order) the tenant's wait, quorum and commit legs and the shard's
	// route view, and finally the merge at the makespan point.
	base := s.events.Now()
	s.events.push(Event{Kind: KindSchedule, Round: r, Start: base,
		A: int64(scheduled), B: int64(s.k)})
	s.events.push(Event{Kind: KindPartition, Round: r, Start: base,
		A: int64(s.pool.LastComponents()), B: int64(merges), C: int64(s.pool.LastActive())})
	var makespan, work, critRead int64
	for sh := range s.execTenant {
		id := s.execTenant[sh]
		if id < 0 {
			continue
		}
		rep := &reports[sh]
		t := s.tenants[id]
		t.note(rep)
		s.hDedup.Observe(int64(s.pool.LastDedupRequests(sh)))
		// The read leg is the quorum (retrieval) stage, the remainder of
		// the step the commit (update) stage: the two tile rep.Time.
		readTime, readPhases, liveArea := s.pool.LastStepBreakdown(sh)
		t.stageQuorum += readTime
		s.events.push(Event{Kind: KindWait, Round: r, Start: base,
			Track: id, A: s.waitScratch[sh]})
		s.events.push(Event{Kind: KindQuorum, Round: r, Start: base, Dur: readTime,
			Track: id, A: int64(readPhases), B: liveArea})
		s.events.push(Event{Kind: KindCommit, Round: r, Start: base + readTime, Dur: rep.Time - readTime,
			Track: id, A: int64(rep.Phases - readPhases)})
		// The shard's interconnect view of the same step: routed cycles as
		// the duration (0 on the unit-cost bipartite fabric), with the
		// mesh's cycle/hop counter deltas as attributes. Each shard runs at
		// most one tenant step per round, so the delta is this step's.
		var dc, dh int64
		if nw := s.nets[sh]; nw != nil {
			st := nw.Stats()
			d := st.Sub(s.netPrev[sh])
			dc, dh = d.Cycles, d.Hops
			s.netPrev[sh] = st
		}
		s.events.push(Event{Kind: KindRoute, Round: r, Start: base, Dur: rep.NetworkCycles,
			Track: int32(sh), A: dc, B: dh, C: int64(rep.ModuleContention)})
		work += rep.Time
		if rep.Time > makespan {
			makespan = rep.Time
			critRead = readTime
		}
	}
	s.critQuorum += critRead
	s.hRoundActive.Observe(int64(s.pool.LastActive()))
	s.hRoundMakespan.Observe(makespan)
	s.hRoundWork.Observe(work)
	s.events.push(Event{Kind: KindMerge, Round: r, Start: base + makespan,
		A: int64(s.pool.LastActive()), B: makespan, C: work})
	s.events.advance(makespan)
}

// note folds one executed step into the tenant's accounting, including the
// order-sensitive report hash the determinism tests compare.
func (t *tenant) note(rep *model.StepReport) {
	t.hStep.Observe(rep.Time)
	t.phases += int64(rep.Phases)
	t.copies += rep.CopyAccesses
	t.cycles += rep.NetworkCycles
	if rep.ModuleContention > t.maxCont {
		t.maxCont = rep.ModuleContention
	}
	if rep.Err != nil {
		t.errSteps++
	}
	h := t.hash
	if h == 0 {
		h = model.FNVOffset
	}
	h = model.FoldFNV(h, uint64(rep.Time))
	h = model.FoldFNV(h, uint64(rep.Phases))
	h = model.FoldFNV(h, uint64(rep.CopyAccesses))
	h = model.FoldFNV(h, uint64(rep.NetworkCycles))
	h = model.FoldFNV(h, uint64(rep.ModuleContention))
	n := t.cfg.Procs
	if n > len(rep.Values) {
		n = len(rep.Values)
	}
	for _, v := range rep.Values[:n] {
		h = model.FoldFNV(h, uint64(v))
	}
	t.hash = h
}

// Run executes exactly `rounds` serving rounds (idle rounds included).
func (s *Server) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		s.Round()
	}
}

// StopAdmission stops admission — open-loop arrivals are no longer
// accepted, closed-loop windows stop replenishing, Submit rejects, the
// autoscaler stops deciding — without executing any rounds. The replay
// path uses it to reproduce a recorded drain transition at its recorded
// round; interactive callers usually want Drain, which also runs the
// queues dry. The false→true transition is a drain event and an
// arrival-script line, recorded once.
func (s *Server) StopAdmission() {
	if !s.draining {
		s.draining = true
		s.events.push(Event{Kind: KindDrain, Round: s.round, Start: s.events.Now()})
		if s.script != nil {
			s.script.Drain(s.round)
		}
	}
}

// Drain stops admission — open-loop arrivals are no longer accepted,
// closed-loop windows stop replenishing — and keeps executing rounds until
// every queued credit is consumed or its source exhausted. The graceful-
// shutdown half of a serving deployment: every admitted credit either
// executes or is counted (Unserved) when its source ends first.
func (s *Server) Drain() {
	s.StopAdmission()
	for {
		live := false
		for _, t := range s.tenants {
			if !t.done && t.credits > 0 {
				live = true
				break
			}
		}
		if !live {
			return
		}
		s.Round()
	}
}

// ServeAll runs rounds until every tenant's source is exhausted and every
// queue drained, erroring out after maxRounds — the run-a-finite-mix-to-
// completion entry point the determinism tests use.
func (s *Server) ServeAll(maxRounds int) error {
	for i := 0; i < maxRounds; i++ {
		s.Round()
		alldone := true
		for _, t := range s.tenants {
			if !t.done {
				alldone = false
				break
			}
		}
		if alldone {
			s.Drain()
			return nil
		}
	}
	return fmt.Errorf("serve: mix not finished after %d rounds", maxRounds)
}

// PlayScript replays a recorded arrival script in virtual time: for every
// virtual round it applies the events recorded before that round — in
// recorded order: submissions, resizes, the admission stop — then executes
// the round, for exactly `rounds` rounds (the script footer's count, which
// includes the live run's drain rounds). On a fresh server built from the
// live run's Config this reproduces the live run bit-for-bit: its
// autoscaler, if any, sees the same rounds and makes the same decisions
// (event-log "why" records included), so the script's own resize events
// find K already moved and are no-ops. Record the replay through
// StartTrace and StartScript and both come out byte-identical to the live
// captures.
func (s *Server) PlayScript(events []replay.ScriptEvent, rounds int64) {
	i := 0
	for r := int64(0); r < rounds; r++ {
		for i < len(events) && events[i].Round <= r {
			s.applyEvent(events[i])
			i++
		}
		s.Round()
	}
	for i < len(events) {
		s.applyEvent(events[i])
		i++
	}
}

// applyEvent applies one recorded external event.
func (s *Server) applyEvent(ev replay.ScriptEvent) {
	switch {
	case ev.IsResize():
		s.Resize(ev.K)
	case ev.IsDrain():
		s.StopAdmission()
	default:
		s.Submit(ev.Tenant, ev.Credits)
	}
}

// Close drains the server (Drain). A server holds no goroutine and no
// operating-system resource, so draining is all there is to close.
func (s *Server) Close() { s.Drain() }

// TenantStats is one tenant's serving account.
type TenantStats struct {
	Name       string
	Band       int
	Shard      int
	Procs      int
	Done       bool
	Submitted  int64 // step credits offered by the arrival process
	Rejected   int64 // credits refused by the bounded queue
	Unserved   int64 // credits admitted but voided by source exhaustion
	Steps      int64 // steps executed
	Queue      int   // current queue depth (credits)
	MaxQueue   int   // high-water queue depth
	SimTime    int64 // summed simulated step time
	QuorumTime int64 // retrieval-leg share of SimTime (QuorumTime+CommitTime == SimTime)
	CommitTime int64 // update-leg share of SimTime
	Phases     int64
	Copies     int64
	Cycles     int64
	MaxCont    int
	ErrSteps   int64  // steps whose report carried a conflict-discipline error
	Hash       uint64 // FNV-1a over the tenant's StepReport stream
	SrcErr     error
}

// NumTenants returns the mix size.
func (s *Server) NumTenants() int { return len(s.tenants) }

// TenantStats returns tenant i's account.
func (s *Server) TenantStats(i int) TenantStats {
	t := s.tenants[i]
	simTime := t.hStep.Sum()
	return TenantStats{
		Name: t.cfg.Name, Band: t.cfg.Band, Shard: t.shard, Procs: t.cfg.Procs,
		Done: t.done, Submitted: t.submitted, Rejected: t.rejected,
		Unserved: t.unserved, Steps: t.hStep.Count(),
		Queue: t.credits, MaxQueue: t.maxQueue, SimTime: simTime,
		QuorumTime: t.stageQuorum, CommitTime: simTime - t.stageQuorum, Phases: t.phases,
		Copies: t.copies, Cycles: t.cycles, MaxCont: t.maxCont, ErrSteps: t.errSteps,
		Hash: t.hash, SrcErr: t.srcErr,
	}
}

// Stats is the server-wide serving account.
type Stats struct {
	Rounds       int64 // virtual rounds elapsed (admission clock)
	ExecRounds   int64 // rounds that executed at least one step
	IdleRounds   int64 // rounds with nothing to schedule
	MergedRounds int64 // executed rounds with ≥ 1 forced serial merge
	ForcedMerges int64 // total forced serial-component merges
	BandOverlaps int64 // tenants admitted onto an already-owned band
	Resizes      int64 // online K transitions performed

	// Critical-path makespan attribution: each executed round's makespan
	// (its critical shard's step time) split into the quorum and commit
	// legs and summed. CritQuorumTime+CritCommitTime is the run's total
	// makespan — the simulated time the serving lane actually took —
	// where the per-tenant stage times sum WORK. Which shard is critical
	// depends on the round schedule, so the split is K-variant but
	// replay-invariant.
	CritQuorumTime int64
	CritCommitTime int64
}

// Stats returns the server-wide account.
func (s *Server) Stats() Stats {
	exec := s.hRoundMakespan.Count()
	return Stats{
		Rounds: s.round, ExecRounds: exec, IdleRounds: s.round - exec,
		MergedRounds: s.mergedRounds, ForcedMerges: s.forcedMerges,
		BandOverlaps: s.bandOverlaps, Resizes: s.resizes,
		CritQuorumTime: s.critQuorum, CritCommitTime: s.hRoundMakespan.Sum() - s.critQuorum,
	}
}
