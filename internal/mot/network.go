package mot

import (
	"cmp"
	"slices"

	"repro/internal/quorum"
)

// Policy selects the contention rule for request packets on tree edges.
type Policy uint8

const (
	// DropOnCollision refuses the lower-priority packet at an edge
	// conflict; the quorum engine retries it next phase. This is the
	// paper's routing rule and the default.
	DropOnCollision Policy = iota
	// QueueOnCollision makes the loser wait a cycle instead (pure
	// store-and-forward). Useful as an ablation: it trades phases for
	// longer ones.
	QueueOnCollision
)

// Config tunes the network simulation.
type Config struct {
	// ModuleCapacity is the number of requests a module can serve per
	// cycle (default 1). Requests beyond it queue at the module leaf —
	// the stage-2 pipelining of the simulation scheme.
	ModuleCapacity int
	// Policy is the tree-edge contention rule for request legs.
	Policy Policy
	// RowOf places copy `cp` of variable `v` on a grid row (needed for
	// ModulesAtLeaves; ignored for ModulesAtRoots). The memory map already
	// fixes the bank/column of every copy; the row spreads copies within
	// the bank. Must be deterministic.
	RowOf func(v, cp int) int
	// DualRail enables the row+column access of Theorem 3's remark: bank
	// ids in [0, side) are column banks (routed via the column tree), ids
	// in [side, 2·side) are ROW banks (routed via requestPathRowRail),
	// doubling the number of independent serialization points.
	DualRail bool
	// Parallelism selects how many OS workers advance a phase's
	// tree-connectivity components concurrently. 0 (the default) consults
	// the PRAMSIM_PARALLEL environment variable and falls back to the
	// serial reference router; 1 forces the serial router; values > 1 use
	// that many workers; negative values use GOMAXPROCS. The parallel
	// router is bit-for-bit identical to the serial one (see the package
	// doc and the differential tests).
	Parallelism int
}

// Stats accumulates network-level counters across phases.
type Stats struct {
	Cycles     int64 // total simulated cycles
	Hops       int64 // edge traversals
	Collisions int64 // request packets refused at a tree edge
	Served     int64 // module services completed
	MaxQueue   int   // deepest module backlog observed in any cycle
}

// Sub returns the counter deltas s−prev for a window bounded by two
// snapshots of one network's Stats. Cycles, Hops, Collisions and Served
// are monotone counters, so the differences are the window's activity;
// MaxQueue is a running maximum, not a counter — the result carries the
// current value unchanged (a per-window peak needs the per-step
// ModuleContention report instead).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Cycles:     s.Cycles - prev.Cycles,
		Hops:       s.Hops - prev.Hops,
		Collisions: s.Collisions - prev.Collisions,
		Served:     s.Served - prev.Served,
		MaxQueue:   s.MaxQueue,
	}
}

// Network is a 2DMOT with a synchronous packet switch fabric. It implements
// quorum.Interconnect, so it slots into the quorum engine exactly where the
// complete bipartite graph of the DMMPC does — same protocol, real network.
//
// The simulation is allocation-free in steady state. Paths are materialized
// as dense edge indices (Topology.denseEdgeID) into a shared per-phase
// arena; per-cycle edge contention is a claim-set stamped with the global
// cycle counter (which never resets, so the set never needs clearing), and
// module service/load counters live in small phase-interned tables. Packet
// state is STRUCTURE-OF-ARRAYS — four parallel int32 lanes (cursor, end,
// service point, module), see the package doc's "SoA layout & claim
// resolution" section — and each cycle walks a compacted active-packet list
// of indices into those lanes. The invariant is locked in by
// TestRoutePhaseZeroAllocs; behavior is locked to the reference
// implementation by the golden-trace tests and the AoS reference router in
// reference_test.go.
//
// With Config.Parallelism > 1 a phase's packets are partitioned into
// tree-connectivity components and advanced concurrently on a bounded
// worker pool (see parallel.go); results are merged in canonical component
// order, so grants, cycle counts and Stats stay bit-for-bit identical to
// the serial router. The arenas still make a Network single-threaded from
// the caller's point of view: one phase at a time.
type Network struct {
	topo Topology
	cfg  Config

	clock int64 // global cycle counter, never reset
	stats Stats

	phase int64 // RoutePhase invocation counter; stamps the intern tables

	// shards hold the per-worker slices of the router arena: the edge
	// claim-set plus the per-component cycle-loop accumulators. shards[0]
	// doubles as the serial router's state; the pool workers own
	// shards[1:]. See parallel.go.
	shards []shard
	par    int      // resolved worker count (1 = serial reference router)
	pool   *motPool // lazily started worker pool when par > 1

	// Module interning: grid module id -> phase-local id, open addressing.
	modSlotKey   []int32
	modSlotVal   []int32
	modSlotPhase []int64
	modMask      int
	modCount     int32
	modLoad      []int32 // per phase-local module: attempts this phase
	modServed    []int64 // per phase-local module: cycle stamp of service count
	modServedCnt []int32 // per phase-local module: services this cycle

	// SoA packet state: four parallel dense int32 lanes indexed by packet
	// id (== attempt index). The cycle loop touches only these 4-byte
	// lanes plus the shared path arena, so its working set is cache-linear
	// in the compacted active order (ascending packet ids).
	pktCur []int32 // absolute index of the next edge in pathBuf
	pktEnd []int32 // absolute end-of-path offset (grant on reaching it)
	pktSrv []int32 // absolute module-service offset; −1 once served
	pktMod []int32 // phase-local module id for service accounting
	// pktPrio is the processor priority, consulted only on the cold sort
	// path (engine schedules arrive pre-sorted) — kept out of the hot
	// lanes above.
	pktPrio []int32

	// Per-phase buffers.
	active  []int32 // live packet indices in priority order, compacted per cycle
	order   []int32 // processing order when attempts arrive unsorted
	pathBuf []int32 // all packet paths, dense edge indices
	granted []bool
	// pktTrees stores, per packet, the union-find node ids of the up-to-
	// three trees its path traverses (3 entries each, −1 when unused).
	// Together with the module node they define the packet's connectivity
	// component — the unit of parallel advancement. Kept out of the hot
	// lanes so the cycle loop's working set stays minimal.
	pktTrees []int32

	// Tree-connectivity partition scratch (parallel router only).
	ufParent []int32
	ufSize   []int32
	ufStamp  []int64
	compCnt  []int32 // per component: packet count, then fill cursor
	compOf   []int32 // per active position: component id
	compEnd  []int32 // per component: end offset into compPkts
	compPkts []int32 // packet indices grouped by component, priority order
}

// edgeSlot is one entry of the cycle-stamped edge claim-set.
type edgeSlot struct {
	cycle int64
	key   int32
}

// NewNetwork builds a 2DMOT network simulator over an a×a grid.
func NewNetwork(side int, pl Placement, cfg Config) *Network {
	if cfg.ModuleCapacity <= 0 {
		cfg.ModuleCapacity = 1
	}
	if pl == ModulesAtLeaves && cfg.RowOf == nil {
		cfg.RowOf = func(v, cp int) int { return int(mix64(uint64(v)*31+uint64(cp))) & (side - 1) }
	}
	topo := NewTopology(side, pl) // panics if side breaches the int32 dense-edge ceiling
	nw := &Network{topo: topo, cfg: cfg, shards: make([]shard, 1)}
	nw.SetParallelism(cfg.Parallelism)
	return nw
}

// Topology returns the network's shape.
func (nw *Network) Topology() Topology { return nw.topo }

// TimeInCycles marks the network's phase durations as physical cycles
// (quorum.CycleTimed).
func (nw *Network) TimeInCycles() bool { return true }

var _ quorum.BandwidthSetter = (*Network)(nil)

// SetBandwidth implements quorum.BandwidthSetter: it retunes the module
// service rate per cycle, the knob the two-stage schedule's pipelined
// stage 2 turns up to O(log n), and returns the rate it replaces.
func (nw *Network) SetBandwidth(perPhase int) (previous int) {
	previous = nw.cfg.ModuleCapacity
	nw.cfg.ModuleCapacity = max(perPhase, 1)
	return previous
}

// Stats returns accumulated counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Parallelism returns the resolved worker count (1 = serial).
func (nw *Network) Parallelism() int { return nw.par }

// ensureTables sizes the claim-set, intern tables and per-phase buffers for
// a phase of k attempts, growing (and only growing) the reusable arenas.
func (nw *Network) ensureTables(k int) {
	nw.shards[0].ensure(k)

	needMod := 2 * k
	if nw.modMask == 0 || len(nw.modSlotKey) < needMod {
		sz := 16
		for sz < needMod {
			sz *= 2
		}
		nw.modSlotKey = make([]int32, sz)
		nw.modSlotVal = make([]int32, sz)
		nw.modSlotPhase = make([]int64, sz)
		nw.modMask = sz - 1
	}
	if cap(nw.modLoad) < k {
		nw.modLoad = make([]int32, k)
		nw.modServed = make([]int64, k)
		nw.modServedCnt = make([]int32, k)
	}
	nw.modLoad = nw.modLoad[:k]
	nw.modServed = nw.modServed[:k]
	nw.modServedCnt = nw.modServedCnt[:k]

	nw.pktCur = growSlice(nw.pktCur, k)
	nw.pktEnd = growSlice(nw.pktEnd, k)
	nw.pktSrv = growSlice(nw.pktSrv, k)
	nw.pktMod = growSlice(nw.pktMod, k)
	nw.pktPrio = growSlice(nw.pktPrio, k)
	nw.pktTrees = growSlice(nw.pktTrees, 3*k)
}

// internModule maps a grid module id to a compact phase-local id.
func (nw *Network) internModule(key int32) int32 {
	h := int((uint64(uint32(key))*0x9E3779B97F4A7C15)>>40) & nw.modMask
	for {
		if nw.modSlotPhase[h] != nw.phase {
			nw.modSlotPhase[h] = nw.phase
			nw.modSlotKey[h] = key
			id := nw.modCount
			nw.modCount++
			nw.modSlotVal[h] = id
			return id
		}
		if nw.modSlotKey[h] == key {
			return nw.modSlotVal[h]
		}
		h = (h + 1) & nw.modMask
	}
}

// b2i converts a claim/drop outcome into a branch-free increment: the
// compiler lowers it to SETcc, so the cycle loop's per-packet bookkeeping
// (cursor advance, active-list retention, counter bumps) is conditional
// moves instead of unpredictable branches.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// RoutePhase implements quorum.Interconnect. Each attempt becomes a packet
// injected at its processor's root on cycle one of the phase; the phase
// lasts until every packet has either returned (granted) or collided
// (refused). The phase cost is the makespan in cycles.
//
//pram:hotpath
func (nw *Network) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	if cap(nw.granted) < len(attempts) {
		nw.granted = make([]bool, len(attempts))
	}
	granted := nw.granted[:len(attempts)]
	clear(granted)
	nw.granted = granted
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	side := nw.topo.Side
	nw.phase++
	nw.ensureTables(len(attempts))
	nw.modCount = 0

	pktCur, pktEnd, pktSrv := nw.pktCur, nw.pktEnd, nw.pktSrv
	pktMod, pktPrio := nw.pktMod, nw.pktPrio
	pktTrees := nw.pktTrees
	pathBuf := nw.pathBuf[:0]
	svc := int32(nw.topo.servicePos())
	sorted := true
	for i, a := range attempts {
		var row, col int
		rowRail := false
		if nw.topo.Placement == ModulesAtLeaves {
			// Attempt.Module is the bank chosen by the memory map; with
			// DualRail, banks ≥ side are row banks. The free coordinate
			// spreads copies within the bank.
			if nw.cfg.DualRail && a.Module >= side {
				rowRail = true
				row = a.Module & (side - 1)
				col = nw.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			} else {
				col = a.Module & (side - 1)
				row = nw.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			}
		} else {
			col = a.Module & (side - 1)
			row = 0
		}
		if a.Proc >= side {
			panic("mot: processor id exceeds root count")
		}
		lm := nw.internModule(int32(row*side + col))
		if nw.modServed[lm] != -nw.phase {
			// First sighting this phase: reset the load counter (the
			// negative phase stamp cannot collide with a cycle stamp).
			nw.modServed[lm] = -nw.phase
			nw.modLoad[lm] = 0
			nw.modServedCnt[lm] = 0
		}
		nw.modLoad[lm]++
		off := int32(len(pathBuf))
		// Tree-partition nodes: row trees are [0, side), column trees
		// [side, 2·side); the module node is added during partitioning.
		pktTrees[3*i], pktTrees[3*i+1], pktTrees[3*i+2] = int32(a.Proc), int32(side+col), -1
		if rowRail {
			pathBuf = nw.topo.appendRequestPathRowRailDense(pathBuf, a.Proc, row, col)
			// The row rail climbs column tree `row`, then switches to ROW
			// tree `row` for the final delivery.
			pktTrees[3*i+1], pktTrees[3*i+2] = int32(side+row), int32(row)
		} else {
			pathBuf = nw.topo.appendRequestPathDense(pathBuf, a.Proc, row, col)
		}
		pktCur[i] = off
		pktEnd[i] = int32(len(pathBuf))
		pktSrv[i] = off + svc
		pktMod[i] = lm
		pktPrio[i] = int32(a.Proc)
		if i > 0 && pktPrio[i-1] > pktPrio[i] {
			sorted = false
		}
	}
	nw.pathBuf = pathBuf
	maxLoad := 0
	for m := int32(0); m < nw.modCount; m++ {
		if int(nw.modLoad[m]) > maxLoad {
			maxLoad = int(nw.modLoad[m])
		}
	}
	// Deterministic processing order: by priority, then attempt index. The
	// engine schedules attempts in ascending processor order, so in steady
	// state this is the injection order and no sort happens.
	active := nw.active[:0]
	if sorted {
		for i := range attempts {
			active = append(active, int32(i))
		}
	} else {
		order := nw.order[:0]
		for i := range attempts {
			order = append(order, int32(i))
		}
		//pram:coldalloc non-escaping comparator: stays on the stack (E5 benches pin RoutePhase at 0 allocs/op)
		slices.SortFunc(order, func(x, y int32) int {
			if pktPrio[x] != pktPrio[y] {
				return cmp.Compare(pktPrio[x], pktPrio[y])
			}
			return cmp.Compare(x, y)
		})
		nw.order = order
		active = append(active, order...)
	}
	nw.active = active[:0]

	start := nw.clock
	if nw.par > 1 && len(active) > 1 {
		return granted, nw.routeParallel(active, start), maxLoad
	}

	// Singleton fast path. The tree-partition invariant (package doc) says
	// a packet alone in its tree-connectivity component can never lose an
	// edge claim (no other packet touches its trees) nor queue at its
	// module (no other packet addresses it), so its cycle-by-cycle future
	// is closed-form: it advances one edge per cycle, spends one cycle
	// being served, and returns granted after pathLen+1 cycles having
	// contributed pathLen hops, one service, zero collisions and zero
	// backlog. At production sizes most packets are singletons (k packets
	// scatter over side ≫ k banks), so resolving them analytically leaves
	// the cycle loop only the contended components. Bit-for-bit identical
	// to routing them: the golden traces, the AoS reference differential
	// tests and FuzzRoutePhase pin it.
	var fastElapsed int64
	if len(active) > 0 {
		nw.partition(active)
		compOf, compCnt := nw.compOf, nw.compCnt
		w := 0
		var hops, served int64
		for j, pi := range active {
			if compCnt[compOf[j]] == 1 {
				pathLen := int64(pktEnd[pi] - pktCur[pi])
				granted[pi] = true
				hops += pathLen
				served++
				if pathLen+1 > fastElapsed {
					fastElapsed = pathLen + 1
				}
				continue
			}
			active[w] = pi
			w++
		}
		active = active[:w]
		nw.stats.Hops += hops
		nw.stats.Served += served
	}

	// Serial reference cycle loop. advance() is its component-scoped twin
	// for the parallel router: the two bodies MUST stay textually parallel
	// (the golden traces, the differential tests and FuzzRoutePhase pin
	// them bit-for-bit). The loop lives inline here rather than calling
	// advance() because the serial path folds straight into nw.stats —
	// no per-cycle backlog recording, no shard merge.
	slots, mask := nw.shards[0].slots, nw.shards[0].mask
	modServed, modServedCnt := nw.modServed, nw.modServedCnt
	capacity := nw.cfg.ModuleCapacity
	drop := nw.cfg.Policy == DropOnCollision
	var hops, collisions, served int64
	maxQueue := nw.stats.MaxQueue
	clock := start
	for len(active) > 0 {
		clock++
		cycle := clock
		queued := 0
		w := 0
		for _, pi := range active {
			cur := pktCur[pi]
			srv := pktSrv[pi]
			// Module service point (taken once per packet per phase, plus
			// while queued at the leaf — the only branch in the loop).
			if cur == srv {
				lm := pktMod[pi]
				if modServed[lm] != cycle {
					modServed[lm] = cycle
					modServedCnt[lm] = 0
				}
				if int(modServedCnt[lm]) < capacity {
					modServedCnt[lm]++
					pktSrv[pi] = -1
					served++
				} else {
					queued++ // wait at the module leaf (stage-2 queue)
				}
				active[w] = pi
				w++
				continue
			}
			// Edge traversal: claim-set probe, then branch-free selects.
			// The first probe covers >75% of claims (the table is sized to
			// 4 slots per live packet); only a same-cycle slot holding a
			// DIFFERENT edge keeps probing. A same-cycle slot holding THIS
			// edge is a collision, and re-storing (cycle, key) into it is
			// idempotent — so both fast outcomes share one unconditional
			// store and the claim verdict is a flag, not a branch.
			e := pathBuf[cur]
			h := int((uint64(uint32(e))*0x9E3779B97F4A7C15)>>40) & mask
			s := &slots[h]
			ok := s.cycle != cycle
			if !ok && s.key != e {
				ok = claimEdgeProbe(slots, mask, e, cycle, h)
			} else {
				s.cycle = cycle
				s.key = e
			}
			// Branch-free resolution: advance the cursor by the claim
			// verdict, mark a grant when the path is exhausted, refuse an
			// unserved loser under the drop policy, and keep the packet on
			// the compacted active list unless it finished either way.
			adv := b2i(ok)
			cur += adv
			pktCur[pi] = cur
			hops += int64(adv)
			done := cur == pktEnd[pi]
			granted[pi] = done
			refused := drop && !ok && srv >= 0
			collisions += int64(b2i(refused))
			active[w] = pi
			w += int(b2i(!(done || refused)))
		}
		active = active[:w]
		if queued > maxQueue {
			maxQueue = queued
		}
	}
	nw.stats.Hops += hops
	nw.stats.Collisions += collisions
	nw.stats.Served += served
	nw.stats.MaxQueue = maxQueue
	elapsed := clock - start
	if fastElapsed > elapsed {
		elapsed = fastElapsed
	}
	nw.clock = start + elapsed
	nw.stats.Cycles += elapsed
	return granted, elapsed, maxLoad
}

// advance runs the synchronous cycle loop over one component's packets —
// act, in priority order — until every packet has returned or been refused.
// It is the parallel router's component-scoped twin of the serial loop
// inlined in RoutePhase: the two bodies MUST stay textually parallel, and
// the golden traces, differential tests and FuzzRoutePhase pin them
// bit-for-bit. act is compacted in place; all cross-packet state it
// touches (edge claims, per-cycle counters) lives in sh, and all
// per-module state is indexed by phase-local module ids that the partition
// confines to a single component.
//
//pram:hotpath
func (nw *Network) advance(sh *shard, act []int32, start int64) {
	// Hoist every hot field into locals: the cycle loop must not juggle
	// two indirection roots (nw and sh), or register spills eat the gains
	// the arena design bought.
	pktCur, pktEnd, pktSrv, pktMod := nw.pktCur, nw.pktEnd, nw.pktSrv, nw.pktMod
	pathBuf := nw.pathBuf
	granted := nw.granted
	modServed := nw.modServed
	modServedCnt := nw.modServedCnt
	capacity := nw.cfg.ModuleCapacity
	drop := nw.cfg.Policy == DropOnCollision
	slots := sh.slots
	mask := sh.mask
	var hops, collisions, served int64
	clock := start
	for len(act) > 0 {
		clock++
		cycle := clock
		queued := int32(0)
		w := 0
		for _, pi := range act {
			cur := pktCur[pi]
			srv := pktSrv[pi]
			// Module service point.
			if cur == srv {
				lm := pktMod[pi]
				if modServed[lm] != cycle {
					modServed[lm] = cycle
					modServedCnt[lm] = 0
				}
				if int(modServedCnt[lm]) < capacity {
					modServedCnt[lm]++
					pktSrv[pi] = -1
					served++
				} else {
					queued++ // wait at the module leaf (stage-2 queue)
				}
				act[w] = pi
				w++
				continue
			}
			// Edge traversal: claim-set probe, then branch-free selects
			// (see the serial loop for the probe/idempotent-store design).
			e := pathBuf[cur]
			h := int((uint64(uint32(e))*0x9E3779B97F4A7C15)>>40) & mask
			s := &slots[h]
			ok := s.cycle != cycle
			if !ok && s.key != e {
				ok = claimEdgeProbe(slots, mask, e, cycle, h)
			} else {
				s.cycle = cycle
				s.key = e
			}
			adv := b2i(ok)
			cur += adv
			pktCur[pi] = cur
			hops += int64(adv)
			done := cur == pktEnd[pi]
			granted[pi] = done
			refused := drop && !ok && srv >= 0
			collisions += int64(b2i(refused))
			act[w] = pi
			w += int(b2i(!(done || refused)))
		}
		act = act[:w]
		// Record this cycle's module backlog at its offset within the
		// phase, so per-cycle depths from concurrently advanced components
		// sum to the serial router's global count at merge time. Zero
		// depths are implicit (merge treats offsets past len as 0), so the
		// common all-served cycle costs one register compare.
		if queued != 0 {
			t := int(clock - start)
			for len(sh.queued) < t {
				sh.queued = append(sh.queued, 0)
			}
			sh.queued[t-1] += queued
		}
	}
	sh.hops += hops
	sh.collisions += collisions
	sh.served += served
	if e := clock - start; e > sh.elapsed {
		sh.elapsed = e
	}
}

// merge folds the phase's shard accumulators into the network's stats and
// clock. Counter sums are order-independent (exact int64 addition), the
// makespan is the max over shards, and the per-cycle module backlogs are
// summed offset-wise across shards before the running MaxQueue comparison —
// exactly the serial router's per-global-cycle count.
func (nw *Network) merge(shards []shard, start int64) int64 {
	var elapsed int64
	maxT := 0
	for i := range shards {
		sh := &shards[i]
		nw.stats.Hops += sh.hops
		nw.stats.Collisions += sh.collisions
		nw.stats.Served += sh.served
		if sh.elapsed > elapsed {
			elapsed = sh.elapsed
		}
		if len(sh.queued) > maxT {
			maxT = len(sh.queued)
		}
	}
	for t := 0; t < maxT; t++ {
		q := 0
		for i := range shards {
			if t < len(shards[i].queued) {
				q += int(shards[i].queued[t])
			}
		}
		if q > nw.stats.MaxQueue {
			nw.stats.MaxQueue = q
		}
	}
	nw.clock = start + elapsed
	nw.stats.Cycles += elapsed
	return elapsed
}

// mix64 is splitmix64's finalizer: a cheap, deterministic hash used to
// scatter copy rows within a bank.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
