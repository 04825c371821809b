package mot

import (
	"fmt"
	"math"

	"repro/internal/quorum"
	"repro/internal/xmath"
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
	// Parallelism is ignored: a phase is settled by one serial pass (see
	// the package doc). The field remains because cmd/prambench, which
	// changes only with the benchmark, still sets it.
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
// RoutePhase settles a phase in two passes over its attempts, a census and
// a settle pass (see the package doc's "Census and walk"). Every table is
// reused and only grows, so a phase allocates nothing in steady state
// (TestRoutePhaseZeroAllocs); the goldens and the reference router
// in reference_test.go pin the results. A Network routes one phase at a
// time.
type Network struct {
	topo  Topology
	cfg   Config
	banks int // Attempt.Module range: side, or 2·side on the dual rail

	clock int64 // global cycle counter, never reset
	stats Stats
	phase int64 // RoutePhase counter; stamps the module census
	start int64 // clock at the start of the phase being settled

	// The census: packets per row tree and per column tree (zeroed again
	// at the end of each phase) and per module. Modules are interned to
	// phase-local ids through an open-addressed table stamped with the
	// phase.
	rowUsers, colUsers []int32
	modSlots           []modSlot
	modCount           int32
	modUsers           []int32 // per phase-local module: packets addressing it
	modLeaf            []int32 // per phase-local module: its grid leaf row·side+col
	pktMod             []int32 // per attempt: its phase-local module

	walked  []int32 // the attempts that are not quiet, in attempt order
	granted []bool

	// claims holds the walk's (edge, cycle) and (module, cycle) pairs,
	// open-addressed. A slot stamped with a cycle at or before the phase
	// start is free, so the table is never cleared.
	claims  []claim
	backlog []int32 // per cycle of the phase: packets waiting at a module
}

// modSlot is one entry of the module intern table.
type modSlot struct {
	phase int64
	leaf  int32
	id    int32
}

// claim counts the packets that took one (key, cycle) pair: at most one
// for a tree edge, at most ModuleCapacity for a module service.
type claim struct {
	cycle int64
	key   int32 // dense edge id, or −1 − phase-local module id
	n     int32
}

// leg is one descent or climb of a packet's path through one tree.
type leg struct {
	base   int32 // the tree's first dense edge id − 2, see edge
	coord  int32 // the leaf coordinate the leg descends to or climbs from
	up     bool
	shared bool // another packet of the phase uses the tree
}

// edge returns the dense id of the leg's h-th hop (from 0): the edge to
// the child at level l — 1..d going down, d..1 going up — on the way to
// leaf coord.
func (lg leg) edge(h, d int) int32 {
	l := h + 1
	if lg.up {
		l = d - h
	}
	return lg.base + 1<<l + lg.coord>>(d-l)
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
	banks := side
	if pl == ModulesAtLeaves && cfg.DualRail {
		banks = 2 * side
	}
	return &Network{topo: topo, cfg: cfg, banks: banks,
		rowUsers: make([]int32, side), colUsers: make([]int32, side)}
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

// RoutePhase implements quorum.Interconnect. Each attempt becomes a packet
// injected at its processor's root on cycle one of the phase; the phase
// lasts until every packet has either returned (granted) or collided
// (refused). The phase cost is the makespan in cycles. The attempts must
// arrive in non-decreasing Proc order, as the engine schedules them, so
// the attempt order is the settle order. It panics on a processor id
// outside [0, side), on a module id outside the network's banks, and
// then on a pair of attempts out of processor order, naming the pair; a
// refused phase leaves no census counts behind.
//
//pram:hotpath
func (nw *Network) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	granted := growSlice(nw.granted, len(attempts)) // every entry is set below
	nw.granted = granted
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	maxLoad := nw.census(attempts)
	nw.start = nw.clock
	end := nw.start
	d := nw.topo.Depth
	pathLen := int64(2 * nw.topo.servicePos())
	var legs [6]leg
	// need bounds the pairs the walks take: one per hop on a shared tree
	// and one per service at a shared module.
	walked, need := nw.walked[:0], 0
	for i := range attempts {
		a, lm := &attempts[i], nw.pktMod[i]
		rt, ct, rt2 := nw.trees(a, lm)
		if nw.modUsers[lm] == 1 && nw.rowUsers[rt] == 1 && nw.colUsers[ct] == 1 &&
			(rt2 < 0 || nw.rowUsers[rt2] == 1) {
			// Quiet: nothing else touches its trees or its module.
			granted[i] = true
			nw.stats.Hops += pathLen
			nw.stats.Served++
			end = max(end, nw.start+pathLen+1)
			continue
		}
		walked = append(walked, int32(i))
		for _, lg := range nw.layout(&legs, a, lm) {
			if lg.shared {
				need += d
			}
		}
		if nw.modUsers[lm] > 1 {
			need++
		}
	}
	nw.walked = walked
	if len(nw.claims) < 2*need { // at most half full
		nw.claims = make([]claim, xmath.CeilPow2(2*need))
	}
	for _, i := range walked {
		lm := nw.pktMod[i]
		ok, last := nw.walk(nw.layout(&legs, &attempts[i], lm), lm)
		granted[i] = ok
		end = max(end, last)
	}
	for _, q := range nw.backlog {
		nw.stats.MaxQueue = max(nw.stats.MaxQueue, int(q))
	}
	nw.backlog = nw.backlog[:0] // wait appends zeros as it regrows
	nw.uncount(attempts)
	elapsed := end - nw.start
	nw.clock = end
	nw.stats.Cycles += elapsed
	return granted, elapsed, maxLoad
}

// census validates the phase's attempts, counts the packets on every row
// tree, column tree and module, and returns the peak module load.
//
//pram:hotpath
func (nw *Network) census(attempts []quorum.Attempt) int {
	side := nw.topo.Side
	k := len(attempts)
	nw.phase++
	nw.modCount = 0
	if len(nw.modSlots) < 2*k {
		nw.modSlots = make([]modSlot, xmath.CeilPow2(2*k))
	}
	nw.modUsers = growSlice(nw.modUsers, k)
	nw.modLeaf = growSlice(nw.modLeaf, k)
	nw.pktMod = growSlice(nw.pktMod, k)
	maxLoad := 0
	for i := range attempts {
		a := &attempts[i]
		if uint(a.Proc) >= uint(side) || uint(a.Module) >= uint(nw.banks) || i > 0 && a.Proc < attempts[i-1].Proc {
			nw.uncount(attempts[:i])
			switch {
			case uint(a.Proc) >= uint(side):
				panic("mot: processor id exceeds root count")
			case uint(a.Module) >= uint(nw.banks):
				panic("mot: module id outside the network's banks")
			}
			//pram:coldalloc caller-contract panic guard, never taken in steady state
			panic(fmt.Sprintf("mot: attempt %d (processor %d) follows processor %d: a phase must arrive in processor order",
				i, a.Proc, attempts[i-1].Proc))
		}
		lm := nw.internModule(nw.leaf(a))
		nw.pktMod[i] = lm
		nw.modUsers[lm]++
		maxLoad = max(maxLoad, int(nw.modUsers[lm]))
		rt, ct, rt2 := nw.trees(a, lm)
		nw.rowUsers[rt]++
		nw.colUsers[ct]++
		if rt2 >= 0 && rt2 != rt {
			nw.rowUsers[rt2]++
		}
	}
	return maxLoad
}

// leaf returns the grid leaf row·side+col of an attempt's module. Module
// is the bank the memory map chose (on the dual rail, banks side..2·side−1
// are row banks); RowOf spreads the copies within a bank.
func (nw *Network) leaf(a *quorum.Attempt) int32 {
	side := nw.topo.Side
	if nw.topo.Placement == ModulesAtRoots {
		return int32(a.Module)
	}
	free := nw.cfg.RowOf(a.Var, a.Copy) & (side - 1)
	if a.Module >= side {
		return int32((a.Module-side)*side + free)
	}
	return int32(free*side + a.Module)
}

// trees returns the trees the path of attempt a to phase-local module lm
// uses: its processor's row tree rt, the column tree ct it climbs, and on
// the row rail (a bank id of side or more, which only DualRail admits) the
// target row's tree rt2, else −1.
func (nw *Network) trees(a *quorum.Attempt, lm int32) (rt, ct, rt2 int) {
	leaf := int(nw.modLeaf[lm])
	row, col := leaf>>nw.topo.Depth, leaf&(nw.topo.Side-1)
	if a.Module >= nw.topo.Side {
		return a.Proc, row, row
	}
	return a.Proc, col, -1
}

// uncount zeroes the tree counts the census made for attempts.
func (nw *Network) uncount(attempts []quorum.Attempt) {
	for i := range attempts {
		rt, ct, rt2 := nw.trees(&attempts[i], nw.pktMod[i])
		nw.rowUsers[rt], nw.colUsers[ct] = 0, 0
		if rt2 >= 0 {
			nw.rowUsers[rt2] = 0
		}
	}
}

// internModule maps a grid leaf to a compact phase-local module id,
// resetting the module's census count on its first sighting this phase.
func (nw *Network) internModule(leaf int32) int32 {
	mask := len(nw.modSlots) - 1
	h := int((uint64(uint32(leaf))*0x9E3779B97F4A7C15)>>40) & mask
	for {
		s := &nw.modSlots[h]
		if s.phase != nw.phase {
			id := nw.modCount
			nw.modCount++
			*s = modSlot{phase: nw.phase, leaf: leaf, id: id}
			nw.modUsers[id], nw.modLeaf[id] = 0, leaf
			return id
		}
		if s.leaf == leaf {
			return s.id
		}
		h = (h + 1) & mask
	}
}

// layout fills legs with the path of attempt a to phase-local module lm
// (the legs of requestPath and requestPathRowRail): down its processor's
// row tree, up a column tree, at the leaves down to the module, then back
// the same way.
func (nw *Network) layout(legs *[6]leg, a *quorum.Attempt, lm int32) []leg {
	rt, ct, rt2 := nw.trees(a, lm)
	leaf := int(nw.modLeaf[lm])
	kind, tree, coord := kindCol, ct, leaf>>nw.topo.Depth // to the module's row
	if rt2 >= 0 {
		kind, tree, coord = kindRow, rt2, leaf&(nw.topo.Side-1) // to its column
	}
	legs[0] = nw.leg(kindRow, dirDown, rt, ct)
	legs[1] = nw.leg(kindCol, dirUp, ct, a.Proc)
	if nw.topo.Placement == ModulesAtRoots {
		legs[2] = nw.leg(kindCol, dirDown, ct, a.Proc)
		legs[3] = nw.leg(kindRow, dirUp, rt, ct)
		return legs[:4]
	}
	legs[2] = nw.leg(kind, dirDown, tree, coord)
	legs[3] = nw.leg(kind, dirUp, tree, coord)
	legs[4] = nw.leg(kindCol, dirDown, ct, a.Proc)
	legs[5] = nw.leg(kindRow, dirUp, rt, ct)
	return legs[:6]
}

// leg returns the traversal of directed tree (kind, dir, tree) to or from
// leaf coordinate coord.
func (nw *Network) leg(kind, dir, tree, coord int) leg {
	users := nw.rowUsers
	if kind == kindCol {
		users = nw.colUsers
	}
	return leg{
		base:   nw.topo.treeEdges(kind, dir, tree) - 2,
		coord:  int32(coord),
		up:     dir == dirUp,
		shared: users[tree] > 1,
	}
}

// walk routes one packet that is not quiet hop by hop from the phase's
// first cycle, against the claims of the packets settled before it, and
// reports whether it was granted and the cycle it finished in. On a shared
// tree each hop takes its (edge, cycle) pair; at a shared module the
// packet takes a (module, cycle) service against ModuleCapacity and waits
// while the module is full. A loser waits a cycle, except that under
// DropOnCollision a request-leg loser is refused.
//
//pram:hotpath
func (nw *Network) walk(legs []leg, lm int32) (granted bool, last int64) {
	d := nw.topo.Depth
	drop := nw.cfg.Policy == DropOnCollision
	// No phase has more than MaxInt32 packets, so the clamp is exact.
	capacity := int32(min(nw.cfg.ModuleCapacity, math.MaxInt32))
	t := nw.start + 1 // the cycle of the packet's next move
	for li, lg := range legs {
		if li == len(legs)/2 { // the request has reached the module
			if nw.modUsers[lm] > 1 {
				for !nw.take(-1-lm, t, capacity) {
					nw.wait(t)
					t++
				}
			}
			nw.stats.Served++
			t++
		}
		if !lg.shared {
			nw.stats.Hops += int64(d)
			t += int64(d)
			continue
		}
		for h := 0; h < d; h++ {
			for !nw.take(lg.edge(h, d), t, 1) {
				if drop && li < len(legs)/2 {
					nw.stats.Collisions++
					return false, t
				}
				t++
			}
			nw.stats.Hops++
			t++
		}
	}
	return true, t - 1
}

// take adds one use of the pair (key, t) if fewer than capacity packets
// hold it, and reports whether it did.
func (nw *Network) take(key int32, t int64, capacity int32) bool {
	mask := uint64(len(nw.claims) - 1)
	h := (uint64(uint32(key))*0x9E3779B97F4A7C15 + uint64(t)*0xC2B2AE3D27D4EB4F) >> 32 & mask
	for {
		s := &nw.claims[h]
		if s.cycle <= nw.start {
			*s = claim{cycle: t, key: key, n: 1}
			return true
		}
		if s.cycle == t && s.key == key {
			if s.n >= capacity {
				return false
			}
			s.n++
			return true
		}
		h = (h + 1) & mask
	}
}

// wait records a packet waiting at its module leaf in cycle t.
func (nw *Network) wait(t int64) {
	c := int(t - nw.start - 1)
	for len(nw.backlog) <= c {
		nw.backlog = append(nw.backlog, 0)
	}
	nw.backlog[c]++
}

// growSlice resizes buf to n entries, reusing its backing array when able.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// mix64 is splitmix64's finalizer: a cheap, deterministic hash used to
// scatter copy rows within a bank.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
