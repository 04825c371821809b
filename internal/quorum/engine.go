package quorum

import (
	"fmt"

	"repro/internal/model"
)

// Attempt is one copy access scheduled in a phase: the processor proc tries
// to touch copy `Copy` of variable `Var`, which lives in memory module
// `Module` (for the 2DMOT this is a bank/column id). Write distinguishes
// update accesses from retrieval accesses. Slot carries the copy's dense
// cell index (v·r + Copy in the store's row-major cell array), resolved
// once at schedule time (interconnects ignore it; the engine's grant loop
// uses it to touch the granted cell without re-deriving the index).
//
// The engine builds Attempts only for interconnects that route a whole
// phase at once; on the complete bipartite graph it admits each copy
// access as it schedules it and builds none.
type Attempt struct {
	Proc   int
	Module int
	Var    int
	Copy   int
	Slot   int32
	Write  bool
}

// Interconnect decides, for each phase, which scheduled copy accesses are
// granted and how much simulated time the phase costs. Implementations:
// the complete bipartite K(n,M) of the DMMPC (unit phases, per-module
// bandwidth), and the 2DMOT packet network (cycle-accurate, collisions).
type Interconnect interface {
	// RoutePhase processes one phase of attempts and reports which were
	// granted, the phase's simulated duration, and the peak per-module load.
	// The attempts arrive in non-decreasing Proc order, the order the
	// engine schedules them in (cluster by cluster, member by member), and
	// the order arbitration favours; an implementation may refuse a phase
	// out of that order with a panic.
	// Implementations may reuse the returned slice: its contents are only
	// valid until the next RoutePhase call on the same interconnect.
	RoutePhase(attempts []Attempt) (granted []bool, time int64, maxLoad int)
}

// CycleTimed marks interconnects whose RoutePhase time is measured in
// physical network cycles (the 2DMOT) rather than abstract protocol
// phases; the backend then surfaces the time as NetworkCycles too.
type CycleTimed interface {
	TimeInCycles() bool
}

// Request is one deduplicated variable access for the engine: an entire
// read batch or write batch of a P-RAM step, after concurrent accesses to
// the same variable have been combined/resolved by the backend.
type Request struct {
	Proc  int // representative issuing processor (cluster owner, priority)
	Var   int
	Write bool
	Value model.Word // payload when Write
}

// Result reports the cost and outcome of executing one access batch.
//
// The Values, Satisfied and LivePerPhase slices alias the engine's reusable
// scratch arena: they are valid until the next ExecuteBatch or
// ExecuteBatchTwoStage call on the same engine, and must be copied if they
// need to outlive it.
type Result struct {
	Phases        int
	Time          int64
	CopyAccesses  int64
	MaxModuleLoad int
	LivePerPhase  []int // live (unsatisfied) requests after each phase
	Values        []model.Word
	Satisfied     []bool
	Stalled       bool // progress cap hit (bad map or broken interconnect)
	// Stage1Phases/Stage2Phases break Phases down when the two-stage
	// schedule is used (ExecuteBatchTwoStage); zero otherwise.
	Stage1Phases int
	Stage2Phases int
}

// Engine runs the cluster-based two-stage access protocol over a store and
// an interconnect.
//
// A phase takes one of two paths, chosen once by NewEngine. Over a
// *CompleteBipartite the engine handles each copy access in one pass: it
// schedules the access, has the interconnect arbitrate it, and on a grant
// reads or writes the store cell at once (bipartitePhase). Over any other
// interconnect — the 2DMOT, or a wrapper — it schedules the whole phase
// as Attempts, routes them with RoutePhase, then applies the grants
// (routedPhase). Both paths apply grants through one helper and produce
// bit-for-bit the same Results and store.
//
// Before the first phase of every batch, run makes one warm pass over the
// batch's map and store rows (Store.warmRows). At n = 1024 the two tables
// are a 148 MiB working set, and a phase walks a dependent chain — the
// map entry picks the module admit arbitrates, and only then does grant
// touch the cell — that would take a cold row's misses one at a time; the
// pass takes them together. It changes no result, trace byte or store
// state, and every path that runs a batch gets it: both phase loops, the
// two-stage schedule, pool shards and ExecuteDedupStep.
//
// All per-batch working state lives in a scratch arena owned by the engine
// and reused across batches, so in steady state ExecuteBatch performs zero
// heap allocations (an invariant locked in by TestExecuteBatchZeroAllocs).
// The arena makes an Engine single-threaded: one batch at a time.
type Engine struct {
	store    *Store
	net      Interconnect
	n        int // processors
	c        int // quorum size
	r        int // redundancy 2c−1 (= cluster size)
	clusters int // ⌈n/r⌉

	// bip is net when net is the complete bipartite graph: phases then
	// take the one-pass bipartitePhase instead of routedPhase.
	bip *CompleteBipartite

	// MaxPhases caps the phase loop so corrupted maps surface as a stalled
	// Result instead of an infinite loop. Zero selects a generous default.
	MaxPhases int

	// warmed keeps the fold of the last batch's warm pass (Store.warmRows)
	// so that the compiler keeps its loads; nothing reads it.
	warmed uint64

	sc engineScratch
}

// engineScratch is the engine's reusable per-batch arena. Buffers grow to
// the largest batch seen and are then recycled forever.
type engineScratch struct {
	states       []reqState
	qstart       []int // per-cluster queue offsets into qbuf (len clusters+1)
	qfill        []int // per-cluster fill cursors during bucketing
	qbuf         []int // request indices, bucketed by cluster
	rr           []int // per-cluster round-robin cursors
	active       []int // clusters that may still hold live requests, ascending
	attempts     []Attempt
	owners       []int // parallel to attempts: request index (routedPhase only)
	livePerPhase []int // LivePerPhase accumulator (spans both two-stage stages)

	// Primary result buffers back the Result of the exported entry points;
	// the secondary set backs the inner stage-2 run of the two-stage
	// schedule, which must not clobber the stage-1 result it merges into.
	values     []model.Word
	satisfied  []bool
	values2    []model.Word
	satisfied2 []bool
	liveReqs   []Request
	liveIdx    []int
}

// NewEngine returns an engine for n processors over store and net. It
// panics when the map's redundancy exceeds 64, the width of the per-request
// copy bitmask.
func NewEngine(store *Store, net Interconnect, n int) *Engine {
	p := store.Map().P
	r := p.R()
	if r > 64 {
		panic(fmt.Sprintf("quorum.Engine: redundancy %d exceeds bitmask width", r))
	}
	bip, _ := net.(*CompleteBipartite)
	return &Engine{
		store:    store,
		net:      net,
		bip:      bip,
		n:        n,
		c:        p.C,
		r:        r,
		clusters: (n + r - 1) / r,
	}
}

// maxPhases returns the stall cap for a batch of requests.
func (e *Engine) maxPhases(requests int) int {
	if e.MaxPhases > 0 {
		return e.MaxPhases
	}
	// Even a fully serialized system needs only ~requests·c module grants;
	// grant at least one per phase and pad generously.
	return requests*e.c*4 + 64*e.r + 256
}

// reqState tracks one live request through the phases.
type reqState struct {
	accessed  uint64 // bitmask of copies touched (NewEngine enforces r ≤ 64)
	count     int
	done      bool
	bestTS    uint64
	bestVal   model.Word
	anyAccess bool
}

// grow resizes buf to n entries, reusing its backing array when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// primaryBuffers returns the cleared result buffers for an exported batch.
func (e *Engine) primaryBuffers(n int) ([]model.Word, []bool) {
	e.sc.values = grow(e.sc.values, n)
	e.sc.satisfied = grow(e.sc.satisfied, n)
	clear(e.sc.values)
	clear(e.sc.satisfied)
	return e.sc.values, e.sc.satisfied
}

// secondaryBuffers returns the cleared result buffers for the stage-2 sub-run.
func (e *Engine) secondaryBuffers(n int) ([]model.Word, []bool) {
	e.sc.values2 = grow(e.sc.values2, n)
	e.sc.satisfied2 = grow(e.sc.satisfied2, n)
	clear(e.sc.values2)
	clear(e.sc.satisfied2)
	return e.sc.values2, e.sc.satisfied2
}

// ExecuteBatch runs the protocol on one batch of deduplicated requests and
// returns per-request read values plus the phase/time accounting.
//
// Protocol shape (faithful to UW'87 as used by the paper, §1–2): processors
// are organized in clusters of 2c−1; in each phase every cluster advances
// round-robin to its next live request and its member processors attempt
// the request's still-unaccessed copies in distinct modules. Granted
// accesses accumulate; a request dies (is satisfied) once c copies are
// touched. The memory map's expansion property makes the live-set shrink
// geometrically, which the LivePerPhase in the Result lets tests verify.
func (e *Engine) ExecuteBatch(reqs []Request) Result {
	e.sc.livePerPhase = e.sc.livePerPhase[:0]
	values, satisfied := e.primaryBuffers(len(reqs))
	return e.run(reqs, values, satisfied, e.maxPhases(len(reqs)))
}

// run executes one batch into the given result buffers, appending its
// per-phase live counts to the shared arena accumulator (so the two-stage
// schedule's stages land in one contiguous run). It stops with
// Result.Stalled after phaseCap phases.
//
//pram:hotpath
func (e *Engine) run(reqs []Request, values []model.Word, satisfied []bool, phaseCap int) Result {
	res := Result{Values: values, Satisfied: satisfied}
	if len(reqs) == 0 {
		return res
	}
	now := e.store.StampBatch(reqs)
	e.warmed = e.store.warmRows(reqs)
	sc := &e.sc
	sc.states = grow(sc.states, len(reqs))
	states := sc.states
	for i := range states {
		states[i] = reqState{}
	}

	// Bucket requests by the cluster of their issuing processor, preserving
	// batch order within each cluster (a counting sort into a flat buffer).
	clusters := e.clusters
	sc.qstart = grow(sc.qstart, clusters+1)
	sc.qfill = grow(sc.qfill, clusters)
	sc.qbuf = grow(sc.qbuf, len(reqs))
	sc.rr = grow(sc.rr, clusters)
	clear(sc.qfill)
	clear(sc.rr)
	for _, rq := range reqs {
		sc.qfill[e.clusterOf(rq.Proc)]++
	}
	off := 0
	for k := 0; k < clusters; k++ {
		sc.qstart[k] = off
		off += sc.qfill[k]
		sc.qfill[k] = sc.qstart[k]
	}
	sc.qstart[clusters] = off
	for i, rq := range reqs {
		k := e.clusterOf(rq.Proc)
		sc.qbuf[sc.qfill[k]] = i
		sc.qfill[k]++
	}
	sc.active = sc.active[:0]
	for k := 0; k < clusters; k++ {
		if sc.qstart[k+1] > sc.qstart[k] {
			sc.active = append(sc.active, k)
		}
	}

	live := len(reqs)
	liveStart := len(sc.livePerPhase)
	for phase := 0; live > 0; phase++ {
		if phase >= phaseCap {
			res.Stalled = true
			break
		}
		var accesses, finished, load int
		var t int64
		if e.bip != nil {
			accesses, finished, t, load = e.bipartitePhase(reqs, states, now)
		} else {
			accesses, finished, t, load = e.routedPhase(reqs, states, now)
		}
		live -= finished
		res.Phases++
		res.Time += t
		res.CopyAccesses += int64(accesses)
		res.MaxModuleLoad = max(res.MaxModuleLoad, load)
		sc.livePerPhase = append(sc.livePerPhase, live)
	}
	res.LivePerPhase = sc.livePerPhase[liveStart:len(sc.livePerPhase):len(sc.livePerPhase)]
	for i := range reqs {
		satisfied[i] = states[i].done
		if !reqs[i].Write && states[i].anyAccess {
			values[i] = states[i].bestVal
		}
	}
	return res
}

// bipartitePhase runs one phase on the complete bipartite graph in a single
// pass: each cluster takes its next live request, and each member's copy
// access is admitted by e.bip and, if granted, touches the store at once.
// Clusters go in ascending order and members take copies in ascending j,
// so accesses arrive in ascending processor order — the arbitration
// order — and store effects land in the order routedPhase's grant loop
// applies them. A phase has at most n accesses, one per processor. It
// returns the granted accesses, the requests they completed, and the
// phase's time and peak module load.
//
//pram:hotpath
func (e *Engine) bipartitePhase(reqs []Request, states []reqState, now uint64) (accesses, finished int, t int64, load int) {
	cb, sc, mp := e.bip, &e.sc, e.store.Map()
	cb.beginPhase(e.n)
	kept := 0
	for _, k := range sc.active {
		idx := e.nextLive(k, states)
		if idx < 0 {
			continue // drained: drop the cluster from later phases
		}
		sc.active[kept] = k
		kept++
		rq, st := &reqs[idx], &states[idx]
		copies := mp.Copies(rq.Var)
		rowBase := int32(rq.Var * e.r)
		members := e.members(k)
		for j := 0; j < e.r && members > 0; j++ {
			if st.accessed&(1<<uint(j)) != 0 {
				continue
			}
			members--
			if !cb.admit(copies[j]) {
				continue
			}
			accesses++
			if e.grant(rq, st, j, rowBase+int32(j), now) {
				finished++
			}
		}
	}
	sc.active = sc.active[:kept]
	t, load = cb.endPhase()
	return accesses, finished, t, load
}

// routedPhase runs one phase through an interconnect that must see the
// whole phase at once (the 2DMOT, or any wrapper around an interconnect):
// it schedules every attempt, routes them, then applies the grants in
// attempt order. It returns the granted accesses, the requests they
// completed, and the phase's time and peak module load.
//
//pram:hotpath
func (e *Engine) routedPhase(reqs []Request, states []reqState, now uint64) (accesses, finished int, t int64, load int) {
	sc := &e.sc
	attempts, owners := sc.attempts[:0], sc.owners[:0]
	kept := 0
	for _, k := range sc.active {
		idx := e.nextLive(k, states)
		if idx < 0 {
			continue // drained: drop the cluster from later phases
		}
		sc.active[kept] = k
		kept++
		attempts, owners = e.scheduleRequest(k, idx, reqs[idx], &states[idx], attempts, owners)
	}
	sc.active = sc.active[:kept]
	sc.attempts, sc.owners = attempts, owners
	granted, t, load := e.net.RoutePhase(attempts)
	for ai, ok := range granted {
		if !ok {
			continue
		}
		a, idx := &attempts[ai], owners[ai]
		accesses++
		if e.grant(&reqs[idx], &states[idx], a.Copy, a.Slot, now) {
			finished++
		}
	}
	return accesses, finished, t, load
}

// grant applies one granted copy access: it marks copy j of the request
// accessed and writes or reads the copy's store cell (a read keeps the
// first copy with the highest timestamp). It reports whether the access
// completed the request's quorum of c copies.
func (e *Engine) grant(rq *Request, st *reqState, j int, slot int32, now uint64) bool {
	st.accessed |= 1 << uint(j)
	st.count++
	if rq.Write {
		e.store.WriteSlot(slot, rq.Value, now)
	} else {
		v, ts := e.store.ReadSlot(slot)
		if !st.anyAccess || ts > st.bestTS {
			st.bestTS, st.bestVal = ts, v
		}
		st.anyAccess = true
	}
	if st.count == e.c {
		st.done = true
		return true
	}
	return false
}

// clusterOf maps a processor id to its cluster, clamping overflow ids into
// the last (possibly short) cluster.
func (e *Engine) clusterOf(proc int) int {
	k := proc / e.r
	if k >= e.clusters {
		k = e.clusters - 1
	}
	return k
}

// members returns the number of processors in cluster k: r, or fewer in a
// short last cluster.
func (e *Engine) members(k int) int { return min(e.r, e.n-k*e.r) }

// nextLive advances cluster k's round-robin cursor to its next unsatisfied
// request, returning −1 if none remain.
func (e *Engine) nextLive(k int, states []reqState) int {
	queue := e.sc.qbuf[e.sc.qstart[k]:e.sc.qstart[k+1]]
	cursor := &e.sc.rr[k]
	for scanned := 0; scanned < len(queue); scanned++ {
		idx := queue[*cursor%len(queue)]
		*cursor++
		if !states[idx].done {
			return idx
		}
	}
	return -1
}

// scheduleRequest assigns the member processors of cluster k to the live
// (unaccessed) copies of request idx, one attempt per processor, each in a
// distinct module by the map's distinctness invariant.
func (e *Engine) scheduleRequest(k, idx int, rq Request, st *reqState, attempts []Attempt, owners []int) ([]Attempt, []int) {
	base := k * e.r
	members := e.members(k)
	copies := e.store.Map().Copies(rq.Var)
	rowBase := int32(rq.Var * e.r)
	member := 0
	for j := 0; j < e.r && member < members; j++ {
		if st.accessed&(1<<uint(j)) != 0 {
			continue
		}
		attempts = append(attempts, Attempt{
			Proc:   base + member,
			Module: int(copies[j]),
			Var:    rq.Var,
			Copy:   j,
			Slot:   rowBase + int32(j),
			Write:  rq.Write,
		})
		owners = append(owners, idx)
		member++
	}
	return attempts, owners
}
