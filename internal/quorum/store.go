// Package quorum implements the majority-rule replicated-memory protocol of
// Upfal & Wigderson (1987) that the paper's Theorems 2 and 3 build on: each
// shared variable has 2c−1 time-stamped copies spread over the memory
// modules by a memmap.Map; a write refreshes at least c copies, a read
// collects at least c copies and takes the most recent — any two quorums
// intersect, so reads are always current.
//
// The package separates the protocol (Engine: clusters, phases, live/dead
// variables) from the interconnect (Interconnect: which copy accesses are
// granted in a phase and at what simulated cost), so the same engine drives
// the MPC (M = n, Θ(log m) copies), the paper's DMMPC (M = n^(1+ε), Θ(1)
// copies) and the 2DMOT network of Section 3.
//
// # Zero-allocation invariant
//
// The hot path — Machine.ExecuteStep (the dedup front end, then the step
// body) → Engine.ExecuteBatch → Store.StampBatch, the warm pass
// Store.warmRows over the batch's map and store rows, then one phase at a
// time, either Engine.bipartitePhase (on the complete bipartite graph:
// each copy access is arbitrated by CompleteBipartite and applied to the
// store in the same pass) or Engine.routedPhase → Interconnect.RoutePhase
// (on the 2DMOT and on wrapping interconnects) — performs zero heap
// allocations in steady state, whichever addresses a step touches, so
// benchmarks measure the protocol rather than the garbage collector.
// Every per-step and per-batch structure lives in a scratch arena owned
// by its component and reused across invocations: the engine keeps
// request states, flattened cluster queues, the attempt/owner buffers of
// routed phases and the live-trace accumulator; the backend keeps the
// sorted dedup records, the post-dedup step and the dense per-processor
// values buffer; the bipartite interconnect keeps a phase-local module →
// load table sized by the processor count, not by the module count M.
// The warm pass allocates nothing and keeps only a fold of the words it
// loaded, so that the compiler keeps the loads. The price is aliasing —
// Result and StepReport slices are valid only until the next call on the
// same component — and single-threadedness per machine instance. The Pool
// extends the invariant across engines: its post-dedup step slots, census
// tables and merged-report buffers are all reused, so a steady-state
// ExecuteSteps is allocation-free too (pool tests lock it).
// testing.AllocsPerRun tests (alloc_test.go) lock the invariant, and
// TestRandomStepsDoNotAllocate checks it over random addresses; golden
// trace tests (golden_test.go, testdata/) pin the behavior bit-for-bit to
// the pre-arena reference implementation, and FuzzEngine
// (reference_test.go) holds both phase loops to a clean-room statement of
// the protocol written with plain maps.
//
// # Shard-ownership invariant
//
// The Store is sharded BY MEMORY MODULE: every cell (one replicated copy)
// and every row stamp belongs to exactly one module shard — a cell to the
// module the memmap places it in (copy j of variable v lives on module
// Map.ModuleOf(v, j), the node a distributed deployment would put it on),
// a row stamp to the row's 2c−1-module set. All state a batch mutates is
// therefore owned by the modules the batch touches: the union of memmap
// rows of its variables, ALL 2c−1 modules per variable, not only the
// quorum that ends up granted. That makes module sets the
// unit of independence: engines whose batches touch disjoint module sets
// share NO mutable store state, so their steps commute — any order gives
// the same bytes. (Module-level grouping is deliberately conservative —
// distinct variables never share cells even inside one module — but the
// module is the machine's physical resource and the granularity every
// deployment story shards by. The cell ARRAY stays row-major because the
// protocol touches copies row-wise; ownership, not byte adjacency, is
// what the contract needs, and the modules a row spans are disjoint
// between components either way.)
//
// The Pool takes the ownership census every round: a union-find over the
// touched modules groups the shard batches into module-connectivity
// components, and K minus their count is the round's forced-merge count,
// which the serving layer reports. It then runs every shard step on the
// calling goroutine in ascending shard order — the serial reference order
// of the pool differential tests — so batches that contend on a module
// are resolved by that order, not by a lock.
//
// Timestamps come from per-row logical clocks, not one global counter:
// copy timestamps are only ever COMPARED within one variable's row (a
// majority read picks the freshest of that variable's copies), so the
// clock can shard all the way down to the row — rowStamp[v] holds the
// stamp of v's latest write batch. A batch's stamp is 1 + the maximum
// row stamp over the variables it writes, written back to those rows'
// stamps; read-only batches stamp nothing. Stamps along each variable's
// write chain strictly increase — exactly the ordering majority reads
// need — and a row's stamp is owned by the same module set as its copies,
// so disjoint components never observe each other's clocks (this is the
// per-module clock of the sharding design taken to its finest grain: a
// module's clock, were it materialized, would be the max over the rows in
// its segment). Clocks and stamps are uint64: at one tick per batch per
// row, overflow is unreachable (the old uint32 clock panicked after 2^32
// batches — a real limit for a long-running multi-engine server; see
// TestClockCrossesUint32Boundary).
//
// Merged StepReports follow the same aliasing rule as everything else in
// the arena design: the per-shard reports returned by Pool.ExecuteSteps
// alias each shard Machine's scratch (valid until that shard's next step),
// and the aggregate report's Values slice aliases a pool-owned buffer
// (valid until the pool's next ExecuteSteps).
//
// # Trace replay
//
// Every step executes as a dedup front end (sort, conflict check, one
// walk over the sorted records) that produces the step's POST-DEDUP form, a DedupStep,
// followed by one step body (read leg, reader fan-out, write leg). That
// seam is the capture point of the trace record/replay subsystem
// (repro/internal/replay): a StepSink attached via Machine.SetStepSink or
// Pool.SetStepSink observes every live step's DedupStep — the exact
// []Request streams the engine ran, plus the reader fan-out lists — and
// its cost report, and Machine.ExecuteDedupStep / Pool.ExecuteDedupSteps
// run such steps through the same body without the front end, so a replay
// measures exactly the live step minus the front end. Replay is bit-for-bit
// because everything the engine's behavior depends on is a deterministic
// function of (construction parameters, the dedup'd batch sequence): the
// store starts zeroed, LoadCells initializations are part of the recorded
// stream, per-row Lamport stamps advance only on recorded write batches,
// and interconnect state (the 2DMOT's never-reset cycle clock, the
// bipartite graph's phase stamps) evolves only per routed batch. The one
// contract is completeness: the sink must see every step and load since
// construction, which is why recorders attach before the first step. A
// Pool records each round after its shard steps run: shard k under lane k
// in ascending lane order — the order the steps ran in — then
// StepBarrier.
//
// # Serving lane
//
// The Pool is also the substrate of the multi-tenant serving front end
// (repro/internal/serve, cmd/serve): tenants submit step batches through
// bounded admission queues and a deterministic scheduler assigns each
// tenant to a shard by its variable band (memmap.GenerateBanded), so
// co-scheduled tenants touch disjoint module sets and the census above
// finds no forced merge. Two pool affordances exist for that layer: shard
// machines accept batches NARROWER than their processor count (tenants of
// uneven sizes multiplex onto one pool — idle lanes pass empty batches
// and stay singleton components; the uneven-shard differential tests pin
// this against the serial reference), and LastActive/LastComponents
// expose the per-round occupancy and component census (K −
// LastComponents() is the round's forced serial-merge count, the serving
// layer's degradation signal).
//
// # Invariants are machine-enforced
//
// The two package-wide contracts above are not convention: the pramvet
// analyzer suite (repro/internal/lint, run over the tree by CI) rejects
// the source constructs that break them. quorum is a virtual-time
// package — nothing here may read the wall clock (nowallclock), range
// over a map without a commutativity annotation (nomaprange), or touch
// global math/rand state (noglobalrand) — and the steady-state hot
// path is annotated //pram:hotpath (Engine.run, its warm pass
// Store.warmRows and its two phase loops Engine.bipartitePhase and
// Engine.routedPhase, Machine.ExecuteStep, its front end Machine.dedup and
// step body Machine.execute, Machine.ExecuteDedupStep/openDedup,
// Pool.ExecuteSteps/ExecuteDedupSteps), so hotalloc flags any fmt call,
// interface boxing, capturing closure or unowned append added to it
// before the AllocsPerRun tests ever run.
// Deliberately cold lines inside those functions (contract-violation
// panic guards) carry //pram:coldalloc with a justification; the
// analyzers report stale annotations, so the escape hatches cannot
// outlive the code they excuse.
package quorum

import (
	"fmt"
	"math"

	"repro/internal/memmap"
	"repro/internal/model"
)

// Store holds the 2c−1 time-stamped copies of every variable, sharded by
// memory module in OWNERSHIP and indexed by variable row in LAYOUT: the
// cells of a row are contiguous (the protocol always touches copies
// row-wise, so this is the cache-friendly direction — a module-major cell
// layout was measured 40%+ slower at m = 2^20 because every quorum access
// scattered across 2c−1 segments), while the map says which module owns
// each cell — the partition the Pool's census counts. The logical clock
// shards the same way (one stamp per variable row, owned by the row's
// module set). See the package doc's "Shard-ownership invariant" section
// for the ownership rules.
//
// At Theorem 2's n = 1024 point the cells are 120 MiB and the map 28 MiB,
// far beyond the caches, so a cold variable costs the host two or three
// cache misses for O(1) protocol work per copy. Inside a phase those
// misses are serial: admit needs the map entry, grant the cell. The
// engine therefore runs warmRows once per batch before the first phase,
// a tight loop of independent loads that keeps many misses in flight at
// once (memory-level parallelism), so a batch's cold rows arrive
// together.
type Store struct {
	mp       *memmap.Map
	r        int
	cells    []cell   // m × r (value, timestamp) pairs, row-major
	rowStamp []uint64 // per variable: stamp of its latest write batch
}

// cell is one replicated copy: value and write timestamp together, so a
// granted copy access costs one cache line instead of two (separate value
// and timestamp arrays halve on every miss).
type cell struct {
	val model.Word
	ts  uint64
}

// NewStore allocates copy storage for the variables covered by mp.
func NewStore(mp *memmap.Map) *Store {
	r := mp.R()
	m := mp.Vars()
	cells := m * r
	if cells > math.MaxInt32 {
		panic(fmt.Sprintf("quorum.NewStore: %d copies exceed the 32-bit slot index range", cells))
	}
	return &Store{
		mp:       mp,
		r:        r,
		cells:    make([]cell, cells),
		rowStamp: make([]uint64, m),
	}
}

// ReadSlot returns the cell at a dense index v·r+j (from Attempt.Slot).
func (s *Store) ReadSlot(slot int32) (model.Word, uint64) {
	c := s.cells[slot]
	return c.val, c.ts
}

// WriteSlot stamps the cell at a dense index v·r+j with (value, now).
func (s *Store) WriteSlot(slot int32, value model.Word, now uint64) {
	s.cells[slot] = cell{val: value, ts: now}
}

// Map returns the memory map the store distributes copies with.
func (s *Store) Map() *memmap.Map { return s.mp }

// warmRows loads one word from every 64-byte line of each request's map
// row (r × 4 B, 16 entries a line) and store row (r × 16 B, 4 cells a
// line) and returns a fold of the loaded words. The caller keeps the fold,
// because the compiler deletes loads whose values are never used. The
// loads are independent of each other, so a batch's cold rows miss the
// caches together instead of one at a time inside the phase loop's
// dependent admit → grant chain. The line arithmetic is on indices, which
// assumes each array starts on a line; that holds for the large arrays
// where the pass pays, which the Go allocator page-aligns, and elsewhere
// a row may lose a line of warming, never a result.
//
//pram:hotpath
func (s *Store) warmRows(reqs []Request) uint64 {
	var fold uint64
	for i := range reqs {
		v := reqs[i].Var
		row, base := s.mp.Copies(v), v*s.r
		for j := base; j < base+s.r; j = (j | 15) + 1 {
			fold += uint64(row[j-base])
		}
		for j := base; j < base+s.r; j = (j | 3) + 1 {
			fold += uint64(s.cells[j].val)
		}
	}
	return fold
}

// StampBatch computes the Lamport timestamp for one access batch and
// advances the written rows' clocks to it: 1 + the maximum row stamp over
// the variables the batch WRITES (a write must outrank every stamp already
// on its row, and a row's stamp upper-bounds them). Read-only batches
// return 0 without touching any clock — no write uses the stamp, and a
// row's ordering is carried entirely by its own write chain. The Engine
// calls this once per batch in place of a global tick; batches writing
// disjoint variable sets neither observe nor perturb each other's clocks,
// which is why disjoint-module components commute.
func (s *Store) StampBatch(reqs []Request) uint64 {
	var now uint64
	writes := false
	for i := range reqs {
		if !reqs[i].Write {
			continue
		}
		writes = true
		if c := s.rowStamp[reqs[i].Var]; c > now {
			now = c
		}
	}
	if !writes {
		return 0
	}
	now++
	for i := range reqs {
		if reqs[i].Write {
			s.rowStamp[reqs[i].Var] = now
		}
	}
	return now
}

// Clock returns the current logical time: the maximum over the per-row
// clocks. O(m); not for hot paths.
func (s *Store) Clock() uint64 {
	var max uint64
	for _, c := range s.rowStamp {
		if c > max {
			max = c
		}
	}
	return max
}

// RowStamp returns the stamp of variable v's latest write batch.
func (s *Store) RowStamp(v int) uint64 { return s.rowStamp[v] }

// WriteCopy stamps copy j of variable v with (value, now).
func (s *Store) WriteCopy(v, j int, value model.Word, now uint64) {
	s.cells[v*s.r+j] = cell{val: value, ts: now}
}

// ReadCopy returns copy j of variable v with its timestamp.
func (s *Store) ReadCopy(v, j int) (model.Word, uint64) {
	c := s.cells[v*s.r+j]
	return c.val, c.ts
}

// LoadCell initializes every copy of v to value at time zero, bypassing the
// protocol (workload setup).
func (s *Store) LoadCell(v int, value model.Word) {
	for j := 0; j < s.r; j++ {
		s.cells[v*s.r+j] = cell{val: value}
	}
}

// CommittedValue returns the value a correct majority read of v would
// produce: the freshest copy. Reading all copies (not just c) is legitimate
// here because this is the zero-cost debug/verification view.
func (s *Store) CommittedValue(v int) model.Word {
	best, bestTS := s.ReadCopy(v, 0)
	for j := 1; j < s.r; j++ {
		if val, ts := s.ReadCopy(v, j); ts > bestTS {
			bestTS = ts
			best = val
		}
	}
	return best
}

// FreshCopies returns how many copies of v carry its maximum timestamp —
// at least c after any protocol write, an invariant the tests assert.
func (s *Store) FreshCopies(v int) int {
	var maxTS uint64
	for j := 0; j < s.r; j++ {
		if _, t := s.ReadCopy(v, j); t > maxTS {
			maxTS = t
		}
	}
	k := 0
	for j := 0; j < s.r; j++ {
		if _, t := s.ReadCopy(v, j); t == maxTS {
			k++
		}
	}
	return k
}

// Fingerprint hashes the full copy state — every (value, timestamp) pair in
// variable-major order — with FNV-1a. Two stores with equal fingerprints
// hold bit-for-bit identical replicated images, which is how the pool
// differential tests compare pool rounds against the serial reference
// without exporting the arrays.
func (s *Store) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for b := 0; b < 64; b += 8 {
			h ^= (x >> b) & 0xff
			h *= prime
		}
	}
	for _, c := range s.cells {
		mix(uint64(c.val))
		mix(c.ts)
	}
	return h
}

// String describes the store.
func (s *Store) String() string {
	return fmt.Sprintf("quorum.Store{vars=%d r=%d modules=%d clock=%d}",
		s.mp.Vars(), s.r, s.mp.Modules(), s.Clock())
}
