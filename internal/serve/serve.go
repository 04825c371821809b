// Package serve is the multi-tenant serving front end over quorum.Pool —
// the "serving lane" the ROADMAP's scaling work built toward. It admits
// workload submissions from per-tenant traffic sources (live synthetic
// generators reusing the replay package's patterns, or recorded PRAMTRC1
// traces via replay.BatchSource), queues them behind bounded per-tenant
// admission queues with explicit backpressure, and schedules them onto a
// pool of K concurrent quorum engines with BAND-AWARE placement: each
// tenant owns one variable band of a memmap.GenerateBanded image and is
// pinned to shard band%K, so tenants that are co-scheduled in a round
// touch disjoint module bands by construction and hit the pool's
// zero-locking disjoint-component fast path.
//
// # Determinism
//
// A serving run is a pure function of (map seed, tenant specs, arrival
// script): there is no wall clock anywhere. Rounds advance a virtual
// round counter; arrivals are arithmetic in that counter; the scheduler is
// a deterministic round-robin per shard; and the pool's own contract makes
// each round bit-for-bit independent of its worker count. The memory map
// is banded by the TENANT count (not by K), and band-local tenants write
// only their own rows, so per-tenant StepReports and the final store
// fingerprint are ALSO invariant across the engine count K — a mix served
// at K=8 is, per tenant, the same computation as at K=1, merely faster
// (TestServeDeterministic locks this across K ∈ {1,2,4,8} and worker
// counts). The one caveat is backpressure: rejection counts depend on how
// fast queues drain, so open-loop mixes that overflow their queues are
// deterministic per (K, script) but not across K.
//
// # Backpressure and degradation
//
// Admission queues are credit counters with a hard cap: an arrival beyond
// the cap is REJECTED and counted (Rejected per tenant), never silently
// dropped or blocked on. Placement degradation is equally loud: admitting
// a tenant whose band another tenant already owns bumps BandOverlaps (the
// two serialize behind one shard's queue instead of running in parallel),
// and any round whose batches collide on a module — cross-band traffic —
// counts its forced serial-component merges (ForcedMerges, from the
// pool's component census). Both fire the optional Logf hook once, so a
// deployment sees its fast path eroding instead of just slowing down.
//
// # Autoscaling and resize determinism
//
// The engine count K is a wall-clock knob, not a semantic one, and the
// Autoscaler exploits that: watching the degradation signals the server
// already counts (forced merges, pool occupancy, queue depth, rejection
// rate), it grows or shrinks K online via Server.Resize — the pool adds or
// retires shard machines and every tenant re-bands to shard band%K, with
// no data movement (the store is module-sharded) and no accounting reset,
// so the admission identity submitted == steps + queue + rejected +
// unserved holds through every transition. Because per-tenant results are
// K-invariant, a resize changes occupancy and wall clock only: per-tenant
// hashes and the store fingerprint are unchanged by WHEN (or whether) the
// autoscaler acts.
//
// The caveat is, as ever, rejection determinism: Rejected counts depend
// on queue drain rates, and drain rates depend on K. An open-loop or
// externally-submitted mix that overflows its queues is deterministic per
// (K schedule, arrival script) — which is why live HTTP mode records both
// the resize rounds and the submissions into the arrival script — but a
// DIFFERENT K schedule may split the same submissions differently between
// served and rejected. Replays therefore re-apply the recorded resizes at
// their recorded rounds instead of re-running the autoscaler policy; when
// the script's meta line carries the recorded policy, a replay can instead
// run a SHADOW autoscaler (PlayScriptObserved), which reproduces the same
// resize stream — the script's own resize events become no-ops — plus the
// autoscaler's decision records in the event log.
//
// # Observability
//
// The serving lane observes itself in VIRTUAL time, with the same
// determinism contract as everything else: every measurement is a pure
// function of (seed, specs, script), so two runs of one deployment produce
// bit-for-bit identical telemetry, and `serve replay` reproduces a live
// run's telemetry exactly.
//
//   - Histograms (prom.Histogram, power-of-two buckets, int64 hot path):
//     per-tenant simulated step time and queue-wait rounds, per-round
//     makespan / summed work / active-shard occupancy, and post-dedup
//     quorum batch sizes (via Pool.LastDedupRequests — free, no StepSink).
//     All render as Prometheus histogram families on /metrics. For finite
//     mixes served to completion the step-time and dedup families are
//     K-invariant (the step multiset is); wait/occupancy families depend
//     on the round schedule and are invariant across worker counts only.
//   - The event log (EventLog) is one fixed-size ring of flat records per
//     server. It holds the admission events — submissions and their
//     accept/reject splits, arrival-overflow rejections, resizes, the
//     drain, and every autoscaler decision WITH its window inputs
//     (rejection / executed / merged deltas, queue fill, mean occupancy,
//     merge fraction) — next to the pipeline stages of every executed
//     round, which answer WHERE the round went: queue wait, band→shard
//     scheduling, the union-find component partition (with forced merges),
//     each tenant step's quorum (retrieval) and commit (update) legs,
//     per-shard interconnect routing (fabric cycle/hop counter deltas and
//     peak module load), and the closing report merge. Events are stamped
//     on a monotone virtual clock that advances by each round's makespan.
//     GET /debug/events, Server.WriteEvents and `serve events` render the
//     ring as deterministic Chrome/Perfetto trace-event JSON with server,
//     tenant and shard tracks (stages as spans, admission events as
//     instants); `serve replay -events` re-derives a live capture
//     byte-for-byte. Appending is a struct store into a preallocated slot,
//     and truncation is never silent (the dump counts what the ring
//     dropped).
//   - Stage counters: the quorum/commit split tiles each step's Time
//     exactly, so the per-tenant pramsim_serve_tenant_stage_time_total
//     counter families are K-invariant for finite mixes served to
//     completion (labels are tenant+band+stage only, surviving resizes),
//     while the critical-path split
//     (pramsim_serve_round_critical_stage_time_total) follows the round
//     schedule and is worker/replay-invariant only. Both are lifetime
//     totals folded in Round, which a wrapping ring could not reproduce.
//   - The wall-clock side stays quarantined: HTTPOptions.Pprof optionally
//     mounts the stdlib /debug/pprof/* handlers (host-process profiles,
//     opt-in, wallclock-scoped http.go only).
//
// The per-round serving path — admission, scheduling, pool execution,
// accounting, histogram observation and event recording — performs zero
// steady-state heap allocations (TestServeRoundZeroAllocs,
// TestSubmitZeroAllocs, TestEventPushZeroAllocs), extending the
// repository's invariant one layer further up the stack.
package serve

import (
	"fmt"
	"io"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/prom"
	"repro/internal/quorum"
	"repro/internal/replay"
)

// Interconnect selects the fabric each pool shard routes its protocol
// phases over.
type Interconnect uint8

const (
	// Bipartite is the DMMPC's complete bipartite processor–module graph
	// (quorum.NewCompleteBipartite): contention-free routing, phase cost 1.
	// The default, and the only fabric the serving lane had before the
	// per-shard mesh option.
	Bipartite Interconnect = iota
	// MOT2D gives every shard its OWN √M × √M two-dimensional mesh of
	// trees with modules at the leaves (the paper's Theorem 3 machine,
	// core.NewMOT2DPool's deployment): phase costs become real routed
	// cycle counts, and the SoA router core carries the serving lane. The
	// Lemma 2 (KExp, Eps) point is replaced by a Theorem 3 (KExp, Gran)
	// point sized at nMax·Bands total processors.
	MOT2D
)

// String implements fmt.Stringer.
func (ic Interconnect) String() string {
	if ic == MOT2D {
		return "mot2d"
	}
	return "bipartite"
}

// ParseInterconnect maps the CLI spellings to an Interconnect kind.
func ParseInterconnect(s string) (Interconnect, error) {
	switch s {
	case "", "bipartite", "dmmpc", "complete":
		return Bipartite, nil
	case "mot2d", "mot", "mesh":
		return MOT2D, nil
	default:
		return Bipartite, fmt.Errorf("serve: unknown interconnect %q (want bipartite or mot2d)", s)
	}
}

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
	// QueueCap overrides Config.QueueCap for this tenant when > 0.
	QueueCap int
}

// Config assembles a serving deployment.
type Config struct {
	// Tenants is the workload mix. At least one.
	Tenants []TenantConfig
	// Bands is how many variable bands the map is cut into (0 → one per
	// tenant). Must be ≥ every tenant's Band+1.
	Bands int
	// Engines is the pool's engine count K (0 consults PRAMSIM_ENGINES,
	// < 0 GOMAXPROCS).
	Engines int
	// Workers bounds the pool's executor goroutines (quorum.PoolConfig).
	Workers int
	// Mode is the conflict convention. The zero value selects
	// CRCW-Priority: a multi-tenant front end serves arbitrary concurrent
	// traffic, and an exclusivity discipline would make every hotspot or
	// broadcast step allocate a violation error on the hot path. Set an
	// explicit stricter mode only for mixes known to respect it.
	Mode model.Mode
	// Seed draws the memory map (0 → 1).
	Seed int64
	// Interconnect selects each shard's fabric: Bipartite (default) or
	// MOT2D per-shard meshes.
	Interconnect Interconnect
	// KExp and Eps are the Lemma 2 exponents (0 → 2 and 1). Under MOT2D,
	// KExp is the Theorem 3 memory exponent instead (0 → 1.5) and Eps is
	// unused.
	KExp, Eps float64
	// Gran is the Theorem 3 granularity exponent δ for MOT2D meshes
	// (0 → 1.5): the grid side is ceilPow2((nMax·Bands)^((1+δ)/2)), so
	// bigger mixes need a smaller δ to stay inside mot.MaxSide.
	Gran float64
	// DualRail enables the row+column dual-rail banks on MOT2D meshes
	// (Theorem 3's closing remark; halves the redundancy).
	DualRail bool
	// AllowTraceKindMismatch admits trace sources whose recorded header
	// names a different machine kind than the pool's interconnect (the
	// addresses still remap fine; the recorded cycle counts just came from
	// a different fabric). Off by default: a mismatch is an error.
	AllowTraceKindMismatch bool
	// QueueCap is the default per-tenant admission-queue capacity in step
	// credits (0 → 8).
	QueueCap int
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

	// Accounting (exported via TenantStats).
	submitted int64
	rejected  int64
	unserved  int64
	steps     int64
	maxQueue  int
	simTime   int64
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

	// Per-tenant distributions (virtual time; K- and worker-invariant for
	// finite mixes run to completion, see the package doc).
	hStep *prom.Histogram // per-step simulated time
	hWait *prom.Histogram // queue wait in rounds per executed credit

	// Stage attribution (exported via TenantStats and the
	// tenant_stage_time counter families): the tenant's summed simulated
	// step time split into the retrieval (quorum) and update (commit)
	// legs. The two tile simTime exactly and, like simTime, are
	// K-invariant for finite mixes served to completion.
	stageQuorum int64
	stageCommit int64
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
// be called from one goroutine; the pool spreads each round's work
// internally.
type Server struct {
	pool   *quorum.Pool
	store  *quorum.Store
	params memmap.Params
	ic     Interconnect
	side   int // MOT2D grid side (0 under Bipartite)
	bands  int
	k      int
	nMax   int

	// Resolved construction parameters, kept so StartTrace can synthesize
	// a faithful PRAMTRC1 header for the deployment.
	mode     model.Mode
	seed     int64
	kExp     float64
	eps      float64
	gran     float64
	dualRail bool

	tenants []*tenant
	byShard [][]int // tenant ids per shard, in admission order
	cursor  []int   // per-shard round-robin position

	batches    []model.Batch
	execTenant []int32
	empty      model.Batch

	round    int64 // virtual admission clock (advances every Round)
	draining bool

	// Serving counters (exported via Stats).
	execRounds   int64
	idleRounds   int64
	mergedRounds int64
	forcedMerges int64
	bandOverlaps int64
	resizes      int64

	rec *replay.Recorder // live trace capture (tenant-lane), nil when off

	// Observability (see the package doc): the event log and the
	// server-wide round distributions (all virtual-time; observation is
	// allocation-free).
	events         *EventLog
	hRoundActive   *prom.Histogram // active shards per executed round
	hRoundMakespan *prom.Histogram // max shard step time per executed round
	hRoundWork     *prom.Histogram // summed shard step time per executed round
	hDedup         *prom.Histogram // post-dedup requests per executed step

	// Per-shard scratch the stage events read. nets/netPrev cache each
	// shard's mesh handle and fabric counter baseline (nil/zero under
	// Bipartite) for the route events' cycle/hop deltas; waitScratch holds
	// the wait (in rounds) of the credit each shard scheduled this round;
	// critQuorum/critCommit accumulate the critical-path makespan split.
	nets        []*mot.Network
	netPrev     []mot.Stats
	waitScratch []int64
	critQuorum  int64
	critCommit  int64

	logf        func(string, ...any)
	loggedMerge bool
}

// Histogram bucket counts (finite power-of-two buckets; see prom.Histogram).
// Fixed at construction so bucket layouts — part of the exposition — never
// depend on K, worker counts, or the traffic observed.
const (
	stepTimeBuckets   = 24 // per-step simulated time (cycles under MOT2D)
	queueWaitBuckets  = 16 // queue wait in rounds
	occupancyBuckets  = 8  // active shards per round
	roundCostBuckets  = 24 // per-round makespan/work
	dedupBuckets      = 16 // post-dedup requests per step
	defaultEventDepth = 4096
)

// NewServer builds the deployment: a Lemma 2 parameter point at
// maxProcs·Bands total processors, a map banded by the TENANT band count
// (K-invariant, see the package doc), one store, and a K-engine bipartite
// pool whose machines are sized to the largest tenant — tenants with
// smaller Procs simply leave the upper processors idle, so lanes of
// uneven sizes multiplex onto one pool. Infeasible parameter points
// surface as errors, not panics.
func NewServer(cfg Config) (s *Server, err error) {
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
	mode := cfg.Mode
	if mode == model.EREW {
		mode = model.CRCWPriority
	}
	kExp, eps, seed := cfg.KExp, cfg.Eps, cfg.Seed
	if kExp == 0 {
		kExp = 2
		if cfg.Interconnect == MOT2D {
			// Meshes pay side = (nTotal·m-granularity)^((1+δ)/2) in silicon;
			// the Theorem 3 experiments run m = n^1.5 at production sizes.
			kExp = 1.5
		}
	}
	if eps == 0 {
		eps = 1
	}
	gran := cfg.Gran
	if gran == 0 {
		gran = 1.5
	}
	if seed == 0 {
		seed = 1
	}
	// The memmap generators and pool constructor panic on infeasible
	// points (bands below the redundancy, oversized stores, meshes past
	// the dense-edge ceiling); a serving config must not crash the
	// deployment. The recover is scoped to exactly those calls: a panic in
	// a user SourceFactory (admitted below, outside this closure) stays a
	// panic with its stack intact.
	var p memmap.Params
	var side int
	var store *quorum.Store
	var pool *quorum.Pool
	k := quorum.ResolveEngines(cfg.Engines)
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: infeasible deployment parameters: %v", r)
			}
		}()
		if cfg.Interconnect == MOT2D {
			// Theorem 3 point at the TOTAL processor count, one mesh per
			// shard — core.NewMOT2DPool's wiring, banded by the TENANT
			// count so per-tenant results stay K-invariant.
			if cfg.DualRail {
				p, side = memmap.TheoremThreeDual(nMax*bands, kExp, gran)
			} else {
				p, side = memmap.TheoremThree(nMax*bands, kExp, gran)
			}
			if nMax > side {
				return fmt.Errorf("largest tenant procs %d exceed grid side %d (raise Gran)", nMax, side)
			}
			store = quorum.NewStore(memmap.GenerateBanded(p, seed, bands))
			pool = quorum.NewPool("serve", store,
				func(int) quorum.Interconnect {
					return mot.NewNetwork(side, mot.ModulesAtLeaves,
						mot.Config{DualRail: cfg.DualRail})
				},
				quorum.PoolConfig{Engines: k, Procs: nMax, Mode: mode, Workers: cfg.Workers})
			return nil
		}
		p = memmap.LemmaTwo(nMax*bands, kExp, eps)
		store = quorum.NewStore(memmap.GenerateBanded(p, seed, bands))
		pool = quorum.NewPool("serve", store,
			func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() },
			quorum.PoolConfig{Engines: k, Procs: nMax, Mode: mode, Workers: cfg.Workers})
		return nil
	}(); err != nil {
		return nil, err
	}
	// Every error return below this point must retire the pool's executor
	// goroutines: a rejected config (bad tenant, trace kind mismatch) is a
	// recoverable error, not a license to leak workers.
	defer func() {
		if err != nil {
			pool.Close()
		}
	}()

	s = &Server{
		pool:       pool,
		store:      store,
		params:     p,
		ic:         cfg.Interconnect,
		side:       side,
		bands:      bands,
		k:          k,
		nMax:       nMax,
		mode:       mode,
		seed:       seed,
		kExp:       kExp,
		eps:        eps,
		gran:       gran,
		dualRail:   cfg.DualRail,
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
	s.hRoundActive = prom.NewHistogram(occupancyBuckets)
	s.hRoundMakespan = prom.NewHistogram(roundCostBuckets)
	s.hRoundWork = prom.NewHistogram(roundCostBuckets)
	s.hDedup = prom.NewHistogram(dedupBuckets)
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
		lo, hi := memmap.BandRange(tc.Band, p.Mem, bands)
		t := &tenant{
			cfg:   tc,
			id:    i,
			shard: tc.Band % k,
			band:  Band{Lo: lo, Hi: hi, Mem: p.Mem},
			cap:   qcap,
		}
		if tc.QueueCap > 0 {
			t.cap = tc.QueueCap
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
		if rc, ok := TraceHeader(t.src); ok {
			// Header-validate recorded traces against the pool's fabric: a
			// PRAMTRC1 stream names the machine kind it was captured on, and
			// replaying e.g. a bipartite capture into mesh shards silently
			// changes what the recorded stream meant. Addresses remap fine
			// either way, so a config flag can override.
			want := replay.KindDMMPC
			if cfg.Interconnect == MOT2D {
				want = replay.KindMOT2D
			}
			if rc.Kind != want {
				if !cfg.AllowTraceKindMismatch {
					return nil, fmt.Errorf(
						"serve: tenant %q: trace was recorded on a %v machine but the pool serves %v interconnects; set AllowTraceKindMismatch (cmd/serve -allow-kind-mismatch) to replay it anyway",
						tc.Name, rc.Kind, cfg.Interconnect)
				}
				if s.logf != nil {
					s.logf("serve: tenant %q: replaying a %v-recorded trace onto %v interconnects (kind mismatch allowed by config)",
						tc.Name, rc.Kind, cfg.Interconnect)
				}
			}
		}
		t.waitRing = make([]int64, t.cap)
		t.hStep = prom.NewHistogram(stepTimeBuckets)
		t.hWait = prom.NewHistogram(queueWaitBuckets)
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
	return s, nil
}

// Engines returns the pool's engine count K.
func (s *Server) Engines() int { return s.k }

// Bands returns the map's band count.
func (s *Server) Bands() int { return s.bands }

// Interconnect returns the per-shard fabric kind.
func (s *Server) Interconnect() Interconnect { return s.ic }

// Side returns the per-shard mesh side under MOT2D (0 under Bipartite).
func (s *Server) Side() int { return s.side }

// Params returns the deployment's Lemma 2 parameter point.
func (s *Server) Params() memmap.Params { return s.params }

// Pool exposes the underlying engine pool (diagnostics and tests).
func (s *Server) Pool() *quorum.Pool { return s.pool }

// Fingerprint returns the current store fingerprint — the serving run's
// committed-state digest.
func (s *Server) Fingerprint() uint64 { return s.store.Fingerprint() }

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

// Resizes reports how many online K transitions the server has performed.
func (s *Server) Resizes() int64 { return s.resizes }

// Submit offers n step credits to tenant id's bounded admission queue —
// the external-admission path the HTTP front end maps POST /submit onto.
// It returns how many credits were accepted and how many rejected;
// rejection is counted, never silent, and a draining server or exhausted
// tenant rejects everything. The split is a deterministic function of the
// server's state, so replaying a recorded (round, tenant, n) submission
// script reproduces the live run's accounting exactly.
func (s *Server) Submit(id, n int) (accepted, rejected int) {
	if id < 0 || id >= len(s.tenants) {
		panic(fmt.Sprintf("serve: Submit tenant %d outside [0,%d)", id, len(s.tenants)))
	}
	if n <= 0 {
		return 0, 0
	}
	t := s.tenants[id]
	t.submitted += int64(n)
	if s.draining || t.done {
		t.rejected += int64(n)
		s.events.push(Event{Kind: KindSubmit, Round: s.round, Start: s.events.Now(),
			Track: int32(id), B: int64(n)})
		return 0, n
	}
	accepted = n
	if room := t.cap - t.credits; accepted > room {
		rejected = accepted - room
		accepted = room
		t.rejected += int64(rejected)
	}
	t.credits += accepted
	if t.credits > t.maxQueue {
		t.maxQueue = t.credits
	}
	for i := 0; i < accepted; i++ {
		t.pushWait(s.round)
	}
	s.events.push(Event{Kind: KindSubmit, Round: s.round, Start: s.events.Now(),
		Track: int32(id), A: int64(accepted), B: int64(rejected)})
	return accepted, rejected
}

// Resize changes the pool's engine count K online, between rounds: the
// pool adds or retires shard machines (quorum.Pool.Resize — the store is
// module-sharded, so no data moves) and the server re-bands every tenant
// onto shard band%K, rebuilding the per-shard schedules in admission
// order with cursors at the top. Queued credits and all per-tenant
// accounting survive untouched, so the admission identity
// submitted == steps + queue + rejected + unserved holds through the
// transition. Must be called between rounds, from the serving goroutine.
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
	if s.logf != nil {
		s.logf("serve: resized K %d -> %d (round %d, %d tenants re-banded)", prev, k, s.round, len(s.tenants))
	}
}

// refreshNets re-caches the per-shard mesh handles (nil under Bipartite)
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
// of the workload, not of the momentary pool shape. Stop with StopTrace
// (before reading w); only one trace may be active.
func (s *Server) StartTrace(w io.Writer) error {
	if s.rec != nil {
		return fmt.Errorf("serve: a trace is already being recorded")
	}
	kind := replay.KindDMMPC
	gran := s.eps // the DMMPC header convention: Gran is the Lemma 2 ε
	if s.ic == MOT2D {
		kind = replay.KindMOT2D
		gran = s.gran
	}
	built := &replay.Built{
		Cfg: replay.Config{
			Kind: kind, Lanes: len(s.tenants), Procs: s.nMax, Mode: s.mode,
			Seed: s.seed, KExp: s.kExp, Gran: gran, DualRail: s.dualRail,
		},
		Store:  s.store,
		Params: s.params,
		Side:   s.side,
	}
	rec, err := replay.NewSinkRecorder(w, built)
	if err != nil {
		return err
	}
	s.rec = rec
	s.pool.SetStepSink(&tenantLaneSink{s: s})
	return nil
}

// StopTrace detaches the trace sink, writes the eof frame (step count +
// final store fingerprint) and reports the first recording error.
func (s *Server) StopTrace() error {
	if s.rec == nil {
		return nil
	}
	s.pool.SetStepSink(nil)
	err := s.rec.Close()
	s.rec = nil
	return err
}

// tenantLaneSink renames pool shard lanes to tenant lanes on the way into
// the trace recorder, reading execTenant as Round wrote it for the round
// the pool is recording.
type tenantLaneSink struct {
	s *Server
}

func (ts *tenantLaneSink) RecordStep(lane int, reads []quorum.Request, readerOff, readerProcs []int32,
	writes []quorum.Request, rep model.StepReport) {
	id := ts.s.execTenant[lane]
	if id < 0 {
		return // idle shard: empty batch, nothing served
	}
	ts.s.rec.RecordStep(int(id), reads, readerOff, readerProcs, writes, rep)
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
// executed (0 for an idle round, which skips the pool entirely).
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
			t.submitted += int64(n)
			if room := t.cap - t.credits; n > room {
				t.rejected += int64(n - room)
				s.events.push(Event{Kind: KindReject, Round: r, Start: s.events.Now(),
					Track: int32(t.id), A: int64(n - room)})
				n = room
			}
			t.credits += n
			if t.credits > t.maxQueue {
				t.maxQueue = t.credits
			}
			for i := 0; i < n; i++ {
				t.pushWait(r)
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
						s.logf("serve: tenant %q source failed after %d steps: %v", t.cfg.Name, t.steps, err)
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
	if scheduled == 0 {
		s.idleRounds++
		return 0
	}
	_, reports := s.pool.ExecuteSteps(s.batches)
	s.execRounds++
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
		t.hStep.Observe(rep.Time)
		s.hDedup.Observe(int64(s.pool.LastDedupRequests(sh)))
		// The read leg is the quorum (retrieval) stage, the remainder of
		// the step the commit (update) stage: the two tile rep.Time.
		readTime, readPhases, liveArea := s.pool.LastStepBreakdown(sh)
		t.stageQuorum += readTime
		t.stageCommit += rep.Time - readTime
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
	s.critCommit += makespan - critRead
	s.hRoundActive.Observe(int64(s.pool.LastActive()))
	s.hRoundMakespan.Observe(makespan)
	s.hRoundWork.Observe(work)
	s.events.push(Event{Kind: KindMerge, Round: r, Start: base + makespan,
		A: int64(s.pool.LastActive()), B: makespan, C: work})
	s.events.advance(makespan)
	return scheduled
}

// note folds one executed step into the tenant's accounting, including the
// order-sensitive report hash the determinism tests compare.
func (t *tenant) note(rep *model.StepReport) {
	t.steps++
	t.simTime += rep.Time
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
		h = fnvOffset
	}
	h = fnvFold(h, uint64(rep.Time))
	h = fnvFold(h, uint64(rep.Phases))
	h = fnvFold(h, uint64(rep.CopyAccesses))
	h = fnvFold(h, uint64(rep.NetworkCycles))
	h = fnvFold(h, uint64(rep.ModuleContention))
	n := t.cfg.Procs
	if n > len(rep.Values) {
		n = len(rep.Values)
	}
	for _, v := range rep.Values[:n] {
		h = fnvFold(h, uint64(v))
	}
	t.hash = h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvFold hashes one 64-bit word into an FNV-1a accumulator bytewise.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// Run executes exactly `rounds` serving rounds (idle rounds included).
func (s *Server) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		s.Round()
	}
}

// StopAdmission stops admission — open-loop arrivals are no longer
// accepted, closed-loop windows stop replenishing, Submit rejects — without
// executing any rounds. The replay path uses it to reproduce a recorded
// drain transition at its recorded round; interactive callers usually want
// Drain, which also runs the queues dry. The false→true transition is a
// drain event, recorded once.
func (s *Server) StopAdmission() {
	if !s.draining {
		s.draining = true
		s.events.push(Event{Kind: KindDrain, Round: s.round, Start: s.events.Now()})
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
// includes the live run's drain rounds). Combined with identical tenant
// specs and seed this reproduces the live run bit-for-bit; re-record the
// replay through StartTrace and even the trace bytes come out identical.
func (s *Server) PlayScript(events []replay.ScriptEvent, rounds int64) {
	s.PlayScriptObserved(events, rounds, nil)
}

// PlayScriptObserved is PlayScript with a per-round observer hook: observe
// (when non-nil) runs after every executed round until the script's drain
// event has been applied — exactly when the live HTTP loop consults its
// autoscaler (HTTPServer.Tick observes after every Round; the drain rounds
// inside Shutdown are not observed). Replaying with a shadow autoscaler
// built from the recorded policy therefore reproduces the live decision
// stream — including the event log's "why" records — while the
// script's own resize events become no-ops (Resize at the already-current
// K returns immediately).
func (s *Server) PlayScriptObserved(events []replay.ScriptEvent, rounds int64, observe func()) {
	i := 0
	for r := int64(0); r < rounds; r++ {
		for i < len(events) && events[i].Round <= r {
			s.applyEvent(events[i])
			i++
		}
		s.Round()
		if observe != nil && !s.draining {
			observe()
		}
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

// Close drains the server and retires the pool's executor goroutines.
func (s *Server) Close() {
	s.Drain()
	s.pool.Close()
}

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
	return TenantStats{
		Name: t.cfg.Name, Band: t.cfg.Band, Shard: t.shard, Procs: t.cfg.Procs,
		Done: t.done, Submitted: t.submitted, Rejected: t.rejected,
		Unserved: t.unserved, Steps: t.steps,
		Queue: t.credits, MaxQueue: t.maxQueue, SimTime: t.simTime,
		QuorumTime: t.stageQuorum, CommitTime: t.stageCommit, Phases: t.phases,
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
	// worker- and replay-invariant.
	CritQuorumTime int64
	CritCommitTime int64
}

// Stats returns the server-wide account.
func (s *Server) Stats() Stats {
	return Stats{
		Rounds: s.round, ExecRounds: s.execRounds, IdleRounds: s.idleRounds,
		MergedRounds: s.mergedRounds, ForcedMerges: s.forcedMerges,
		BandOverlaps: s.bandOverlaps, Resizes: s.resizes,
		CritQuorumTime: s.critQuorum, CritCommitTime: s.critCommit,
	}
}
