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
// # One processor order
//
// A P-RAM step makes at most one access per processor, so a model.Batch
// is indexed by processor: a Machine takes at most Procs() entries, an
// active entry i must be processor i's request, and its address must lie
// in [0, MemSize()). The dedup front end relies on this: the batch's
// records arrive in ascending processor order, so one stable radix sort
// on (address, write) sorts them into the (address, write, processor)
// order its walk needs. The engine schedules a phase cluster by cluster
// and member by member, so its Attempts arrive in non-decreasing Proc
// order, which is the order every Interconnect arbitrates in. Each
// boundary refuses a violation with a panic that names it rather than
// sorting around it.
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
// allocations in steady state, whichever addresses a step touches. Every
// per-step and per-batch structure lives in a scratch arena owned by its
// component and reused across calls, the Pool's step slots and census
// tables included. The price is aliasing: Result and StepReport slices
// are valid only until the next call on the same component (for a Pool's
// shard reports, their shard's next step), and a machine is
// single-threaded. AllocsPerRun tests (alloc_test.go,
// TestRandomStepsDoNotAllocate) lock the invariant; the goldens
// (golden_test.go, testdata/) pin behaviour bit for bit, and FuzzEngine
// (reference_test.go) holds both phase loops to a clean-room statement of
// the protocol written with plain maps.
//
// # Shard-ownership invariant
//
// The Store is sharded by memory module: copy j of variable v belongs to
// module Map.ModuleOf(v, j), and v's row stamp to the row's 2c−1-module
// set. All state a batch mutates is therefore owned by the modules of its
// variables' rows — all 2c−1 per variable, not only the quorum granted —
// so batches that touch disjoint module sets share no mutable state and
// commute. The Pool takes that census every round (a union-find over the
// touched modules; K minus the component count is the round's
// forced-merge count), then runs the shard steps on the caller in
// ascending shard order, the order the pool differential tests use as
// their reference.
//
// Timestamps are per-row logical clocks: rowStamp[v] holds the stamp of
// v's latest write batch, and a batch stamps 1 + the maximum row stamp
// over the variables it writes (read-only batches stamp nothing). Stamps
// are only compared within one variable's row, so this orders every
// majority read, and disjoint components never see each other's clocks.
// Stamps are uint64; at one tick per batch per row they cannot overflow
// (TestClockCrossesUint32Boundary).
//
// # Record and replay
//
// Every step is a dedup front end (sort, conflict check, one walk over the
// sorted records) that writes its post-dedup form, a DedupStep, into the
// machine's scratch, then one step body (read leg, reader fan-out, write
// leg). The DedupStep crosses every record and replay boundary whole. A
// StepSink attached via Machine.SetStepSink or Pool.SetStepSink receives
// each step's DedupStep and cost report, which is how
// repro/internal/replay records PRAMTRC1 traces; Machine.ExecuteDedupStep
// runs such a step through the same body without the front end; and
// DedupStep.Reconstruct inverts the front end, giving back a batch whose
// dedup is the step again. Replay is bit for bit because the engine's
// behaviour is a function of the construction parameters and the
// DedupStep and LoadCells sequence alone, so a sink must attach before
// the first step. A Pool records each round after its shard steps run, in
// the order they ran: shard k under lane k, in ascending order, then
// StepBarrier. A pool round therefore replays as its shard steps, one
// ExecuteDedupStep per lane in that order; the round's census only
// observes.
//
// # Serving lane
//
// The Pool is the substrate of repro/internal/serve: each tenant owns a
// variable band (memmap.GenerateBanded) and is scheduled onto shard
// band%K, so co-scheduled tenants touch disjoint module sets. Shard
// machines accept batches narrower than their processor count, and
// LastActive/LastComponents expose each round's occupancy and component
// census.
//
// # Invariants are machine-enforced
//
// The pramvet analyzers (repro/internal/lint, run over the tree by CI)
// reject the constructs that break these contracts. quorum is a
// virtual-time package: nothing here may read the wall clock
// (nowallclock), range over a map without a commutativity annotation
// (nomaprange), or touch global math/rand state (noglobalrand). The hot
// path is annotated //pram:hotpath (Engine.run, Store.warmRows,
// Engine.bipartitePhase, Engine.routedPhase, Machine.ExecuteStep,
// Machine.dedup, Machine.execute, Machine.ExecuteDedupStep/openDedup,
// Pool.ExecuteSteps), so hotalloc flags any fmt call,
// interface boxing, capturing closure or unowned append added to it.
// Deliberately cold lines there (contract-violation panic guards) carry
// //pram:coldalloc with a reason, and stale annotations are reported.
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
	h := model.FNVOffset
	for _, c := range s.cells {
		h = model.FoldFNV(model.FoldFNV(h, uint64(c.val)), c.ts)
	}
	return h
}

// String describes the store.
func (s *Store) String() string {
	return fmt.Sprintf("quorum.Store{vars=%d r=%d modules=%d clock=%d}",
		s.mp.Vars(), s.r, s.mp.Modules(), s.Clock())
}
