package quorum

import (
	"fmt"

	"repro/internal/model"
)

// PoolConfig tunes construction of a multi-engine Pool.
type PoolConfig struct {
	// Engines is the number of workload shards K, each served by its own
	// Machine (0 → 1; NewPool panics on a negative count).
	Engines int
	// Procs is the processor count of EACH shard's simulated P-RAM.
	Procs int
	// Mode is the per-shard conflict convention.
	Mode model.Mode
	// TwoStage, when non-nil, selects the faithful UW'87 two-stage
	// schedule on every shard machine.
	TwoStage *TwoStageConfig
}

// Pool owns a sharded Store and K Machines serving independent P-RAM
// programs against it, advancing them in lockstep rounds. Each round takes
// the module census of the package doc's "Shard-ownership invariant",
// which feeds LastActive and LastComponents and does not change how the
// round runs, then runs the shard steps on the calling goroutine in
// ascending shard order. Like its machines, a Pool is single-threaded. A
// round's simulated cost is its slowest shard's, and a steady-state
// ExecuteSteps allocates nothing (TestPoolExecuteStepsZeroAllocs).
// Per-shard programs are typically driven by internal/machine on top. A
// round's shard steps run one after another on one store, so replaying
// them in that order, each with Machine.ExecuteDedupStep on its lane's
// machine, is the round: the census only observes.
type Pool struct {
	store    *Store
	machines []*Machine
	k        int // engines (workload shards)
	n        int // processors per shard

	// Construction inputs, kept so Resize can build additional shard
	// machines identical to the originals.
	name     string
	newNet   func(shard int) Interconnect
	mode     model.Mode
	twoStage *TwoStageConfig

	// Round-scoped census state. modOwner/modStamp are per module and
	// stamped per round so they never need clearing; the union-find is
	// K-sized.
	step       int64
	modOwner   []int32
	modStamp   []int64
	ufParent   []int32
	lastComp   int
	lastActive int

	// reports[k] is shard k's report: opened by its dedup front end
	// (Machine.openReport), whose post-dedup step the census reads, and
	// completed by its step body.
	reports []model.StepReport

	// sink, when non-nil, records every ExecuteSteps round (SetStepSink).
	sink StepSink
}

// NewPool builds K shard machines over store, each with its own
// interconnect from newNet (interconnects hold per-engine routing scratch
// and must not be shared). Shard machines are named name[k].
func NewPool(name string, store *Store, newNet func(shard int) Interconnect, cfg PoolConfig) *Pool {
	if cfg.Engines < 0 {
		panic(fmt.Sprintf("quorum.NewPool: Engines=%d < 0", cfg.Engines))
	}
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("quorum.NewPool: Procs=%d < 1", cfg.Procs))
	}
	k := max(cfg.Engines, 1)
	p := &Pool{
		store:    store,
		machines: make([]*Machine, k),
		k:        k,
		n:        cfg.Procs,
		name:     name,
		newNet:   newNet,
		mode:     cfg.Mode,
		modOwner: make([]int32, store.Map().Modules()),
		modStamp: make([]int64, store.Map().Modules()),
		ufParent: make([]int32, k),
		reports:  make([]model.StepReport, k),
	}
	if cfg.TwoStage != nil {
		ts := *cfg.TwoStage
		p.twoStage = &ts
	}
	for i := range p.machines {
		p.machines[i] = p.newMachine(i)
	}
	return p
}

// newMachine builds shard i's machine from the pool's construction inputs.
func (p *Pool) newMachine(i int) *Machine {
	m := NewMachine(fmt.Sprintf("%s[%d]", p.name, i), p.n, p.mode, p.store, p.newNet(i))
	if p.twoStage != nil {
		ts := *p.twoStage
		m.SetTwoStage(&ts)
	}
	if p.sink != nil {
		m.SetStepSink(p.sink, i)
	}
	return m
}

// Engines returns K, the number of workload shards.
func (p *Pool) Engines() int { return p.k }

// ShardProcs returns the processor count of each shard's simulated P-RAM.
func (p *Pool) ShardProcs() int { return p.n }

// Machine returns shard k's Machine (for per-shard tuning in tests).
func (p *Pool) Machine(k int) *Machine { return p.machines[k] }

// Store returns the shared sharded store.
func (p *Pool) Store() *Store { return p.store }

// LastComponents reports how many module-connectivity components the most
// recent round's census found — K when every shard touched disjoint
// modules, 1 when contention linked every shard into one component.
func (p *Pool) LastComponents() int { return p.lastComp }

// LastActive reports how many shards of the most recent ExecuteSteps
// round carried any work (at least one non-idle request). Idle shards
// are always singleton components, so a round with no forced
// merges has LastComponents() == Engines(); the serving front end uses
// K − LastComponents() as the round's forced-merge count and LastActive()
// as its occupancy.
func (p *Pool) LastActive() int { return p.lastActive }

// LastDedupRequests reports the post-dedup batch size — deduplicated read
// plus write requests — of the step shard sh most recently executed
// (Machine.LastDedupRequests), so observing it costs nothing on the
// execution path. Valid between rounds; an idle shard reports 0.
func (p *Pool) LastDedupRequests(sh int) int {
	return p.machines[sh].LastDedupRequests()
}

// LastStepBreakdown reports the per-leg split — read-quorum time, read
// phases, live-request area — of the step shard sh most recently executed
// (Machine.LastStepBreakdown). Like LastDedupRequests it is free to
// observe and valid between rounds.
func (p *Pool) LastStepBreakdown(sh int) (readTime int64, readPhases int, liveArea int64) {
	return p.machines[sh].LastStepBreakdown()
}

// ShardInterconnect exposes shard sh's fabric (Machine.Interconnect) so
// observers can read per-shard routing counters without a StepSink.
func (p *Pool) ShardInterconnect(sh int) Interconnect {
	return p.machines[sh].Interconnect()
}

// Resize reconfigures the pool to k workload shards ONLINE, between
// rounds: growing appends fresh machines (identical construction to the
// originals — same store, same per-shard interconnect factory, same mode
// and two-stage schedule), shrinking retires the top shards. The store is
// module-sharded and shared, so a resize moves NO data — it only changes
// how many lanes the next round may carry; callers that map work onto
// shards (the serving front end's band%K placement) re-band on top.
// Per-shard results stay bit-for-bit: a batch executes identically on any
// shard machine, and the census is re-derived every round.
//
// Resize invalidates the report slices returned by earlier rounds. It
// allocates (machine construction); it is a transition, not a hot path.
func (p *Pool) Resize(k int) {
	if k < 1 {
		panic(fmt.Sprintf("quorum.Pool.Resize: k=%d < 1", k))
	}
	if k == p.k {
		return
	}
	if k < p.k {
		for i := k; i < p.k; i++ {
			p.machines[i] = nil // release retired shards' scratch
		}
		p.machines = p.machines[:k]
	} else {
		for i := p.k; i < k; i++ {
			p.machines = append(p.machines, p.newMachine(i))
		}
	}
	p.k = k
	p.ufParent = make([]int32, k)
	p.reports = make([]model.StepReport, k)
	// Census values describe the previous round's shard set; reset so a
	// caller polling between rounds never reads occupancy above the new k.
	if p.lastComp > k {
		p.lastComp = k
	}
	if p.lastActive > k {
		p.lastActive = k
	}
}

// SetStepSink attaches a step sink to the pool, which records every
// ExecuteSteps round on the caller after its shard steps ran — shard k's
// step under lane k, in ascending lane order (the order they ran), then
// StepBarrier — and to every shard machine, whose LoadCells record under
// its lane (nil detaches everywhere). Attach before the first step; see
// Machine.SetStepSink.
func (p *Pool) SetStepSink(sink StepSink) {
	p.sink = sink
	for k, m := range p.machines {
		m.SetStepSink(sink, k)
	}
}

// ExecuteSteps runs one P-RAM step per workload shard — batches[k] on
// shard k's machine — and returns the per-shard reports. len(batches)
// must equal Engines(); idle shards pass an empty (or all-OpNone) batch.
// Each shard's dedup front end runs on the caller, then the census, then
// the shard steps in ascending shard order.
//
// The reports alias each shard machine's scratch (valid until that
// shard's next step); copy them to keep them.
//
//pram:hotpath
func (p *Pool) ExecuteSteps(batches []model.Batch) []model.StepReport {
	if len(batches) != p.k {
		//pram:coldalloc caller-contract panic guard, never taken in steady state
		panic(fmt.Sprintf("quorum.Pool: %d batches for %d engines", len(batches), p.k))
	}
	for k, b := range batches {
		p.reports[k] = p.machines[k].dedup(b)
	}
	p.census()
	for k, m := range p.machines {
		p.reports[k] = m.execute(&m.sc.step, p.reports[k])
	}
	if p.sink != nil {
		for k, m := range p.machines {
			p.sink.RecordStep(k, m.sc.step, p.reports[k])
		}
		p.sink.StepBarrier()
	}
	return p.reports
}

// census counts the round's active shards and its module-connectivity
// components: K minus the unions that linked two separate components.
func (p *Pool) census() {
	p.step++
	for i := range p.ufParent {
		p.ufParent[i] = int32(i)
	}
	p.lastActive, p.lastComp = 0, p.k
	for k, m := range p.machines {
		s := &m.sc.step
		if len(s.Reads) > 0 || len(s.Writes) > 0 {
			p.lastActive++
		}
		for i := range s.Reads {
			p.touchVar(int32(k), s.Reads[i].Var)
		}
		for i := range s.Writes {
			p.touchVar(int32(k), s.Writes[i].Var)
		}
	}
}

// touchVar links shard k to every module holding a copy of variable v,
// merging it with any shard that touched one of them earlier this round.
func (p *Pool) touchVar(k int32, v int) {
	for _, mod := range p.store.Map().Copies(v) {
		if p.modStamp[mod] != p.step {
			p.modStamp[mod] = p.step
			p.modOwner[mod] = k
		} else if p.union(k, p.modOwner[mod]) {
			p.lastComp--
		}
	}
}

// find returns the root of a union-find node with path halving.
func (p *Pool) find(x int32) int32 {
	for p.ufParent[x] != x {
		p.ufParent[x] = p.ufParent[p.ufParent[x]]
		x = p.ufParent[x]
	}
	return x
}

// union links the components of two shards and reports whether they were
// separate.
func (p *Pool) union(a, b int32) bool {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return false
	}
	p.ufParent[rb] = ra
	return true
}
