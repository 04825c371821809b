// Package mot implements the two-dimensional mesh of trees (2DMOT, the
// "orthogonal trees" of Nath, Maheshwari & Bhatt 1983): an a×a grid of
// leaves where row i's leaves form the fringe of a complete binary row tree
// RT(i) and column j's leaves form the fringe of a column tree CT(j), with
// processors at the coalesced tree roots.
//
// The package provides a synchronous, hop-per-cycle packet simulation of
// the network and implements quorum.Interconnect: a protocol phase is
// realized by injecting one packet per attempting processor, routing it
// down its row tree, up and down the target column tree to the memory
// module, and back. Conflicting packets that meet on a tree edge collide —
// the lower-priority one is refused for this phase and retried by the
// engine, the rule Theorem 3's routing uses ("provided it does not collide
// with a conflicting request"); replies and module queues use FIFO waiting,
// which is the stage-2 pipelining of Luccio et al. (1990).
//
// # Census and walk
//
// The synchronous cycle loop the network models settles every conflict in
// favour of the lower (Proc, attempt index): an edge claimed twice in one
// cycle, a module past its service capacity, a queued packet that retries.
// So a packet's whole trajectory depends only on the packets before it in
// that order. A phase's attempts arrive in non-decreasing Proc order (the
// engine schedules them so, and RoutePhase refuses any other), so that
// order is the attempt order, and RoutePhase settles packets one at a
// time, each completely, in attempt order, in two passes over the phase's
// attempts:
//
//   - The census counts the packets of the phase on each row tree, each
//     column tree and each module. A path uses at most three trees: its
//     processor's row tree, one column tree and, on the dual rail's row
//     rail, the target row's tree.
//   - The settle pass grants a quiet packet — alone on every tree it uses
//     and on its module — in closed form: a tree or module with one user
//     cannot have a conflict, so the packet moves one hop per cycle and is
//     served on arrival (path-length hops, one service, path length + 1
//     cycles). Every other packet is walked hop by hop from the phase's
//     first cycle. On a shared tree each hop takes its (edge, cycle) pair
//     and loses if a packet settled earlier holds it; the edge id follows
//     from (tree, level, coordinate), so no path is stored. At a shared
//     module the packet takes a (module, cycle) service against
//     ModuleCapacity and waits while the module is full; each waiting
//     cycle adds one to that cycle's backlog, and MaxQueue is the largest
//     backlog. A request-leg loser is refused under DropOnCollision and
//     waits under QueueOnCollision; a reply-leg loser always waits.
//
// The claims live in one open-addressed table per phase, sized from the
// census (the walked packets' hops on shared trees plus their services).
// A slot stamped with a cycle at or before the phase's start is free, so
// the table is never cleared. At production sizes most packets are quiet
// (about 94% at n=1024 on a 16384-side grid), so the walk is the rare
// case.
//
// # Zero-allocation invariant
//
// Network.RoutePhase performs zero heap allocations in steady state: the
// census tables, the walked-packet list and the claim table are reused
// and only grow. testing.AllocsPerRun tests lock the invariant; the goldens
// and the reference router in reference_test.go — the cycle loop in its
// plainest form — pin grants, cycle counts, loads and Stats bit for bit.
package mot

import (
	"fmt"

	"repro/internal/xmath"
)

// Placement selects where the memory modules sit.
type Placement uint8

const (
	// ModulesAtLeaves is the paper's Section 3 deployment (Fig. 8): M = a²
	// modules, one per grid leaf, addressed by bank (column) and row. This
	// is what makes the √M columns act as independent banks and enables
	// constant redundancy.
	ModulesAtLeaves Placement = iota
	// ModulesAtRoots is the Luccio et al. (1990) deployment: n modules,
	// one per root processor, with the grid acting purely as a switching
	// fabric. Granularity stays m/n, so redundancy stays Θ(log n).
	ModulesAtRoots
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == ModulesAtRoots {
		return "modules-at-roots"
	}
	return "modules-at-leaves"
}

// Directed tree-edge encoding: every edge of every tree is identified by
// its child endpoint (level ∈ [1,d], position ∈ [0, 2^level)) plus the tree
// kind (row/column), tree index, and direction of travel.
const (
	kindRow = 0
	kindCol = 1
	dirDown = 0 // toward the leaves
	dirUp   = 1 // toward the root
)

// edgeID packs a directed tree edge into a map key.
func edgeID(kind, dir, tree, childLevel, childPos int) uint64 {
	return uint64(kind)<<63 | uint64(dir)<<62 |
		uint64(tree)<<40 | uint64(childLevel)<<34 | uint64(childPos)
}

// Directed tree edges also have a DENSE index: within one tree the edge to
// the child at (level, pos) gets offset 2^level − 2 + pos ∈ [0, 2a−2), and
// the (kind, dir, tree) triple selects one of 4a trees, giving the compact
// range [0, 4a·(2a−2)). The router's claim table is keyed by these
// indices; two edges get equal dense indices iff their packed ids are
// equal (TestDensePathMatchesEdgeIDs locks this).

// EdgesPerTree returns the directed-edge count of one tree: 2a−2.
func (t Topology) EdgesPerTree() int { return 2*t.Side - 2 }

// DenseEdgeSpace returns the size of the dense directed-edge index range.
func (t Topology) DenseEdgeSpace() int { return 4 * t.Side * t.EdgesPerTree() }

// treeEdges returns the dense index of directed tree (kind, dir, tree)'s
// first edge: its edge to the child at (level, pos) is that plus
// 2^level − 2 + pos.
func (t Topology) treeEdges(kind, dir, tree int) int32 {
	return int32(((kind<<1|dir)*t.Side + tree) * t.EdgesPerTree())
}

// Topology captures the static shape of an a×a 2DMOT.
type Topology struct {
	Side      int // a: leaves per tree; must be a power of two
	Depth     int // d = log2(a)
	Placement Placement
}

// MaxSide is the largest supported grid side: the router keys its claim
// table by int32 dense edge indices, so the dense directed-edge space
// 4a·(2a−2) = 8a²−8a must fit int32. Side 16384 yields 2,147,352,576 <
// 2³¹−1 edges; the next power of two overflows.
const MaxSide = 16384

// NewTopology validates and returns an a×a 2DMOT shape. It panics when
// side is not a power of two or breaches the int32 dense-edge ceiling
// (side > MaxSide) — the router's claim table is keyed by int32 dense edge
// indices, and a silent wraparound would corrupt routing.
func NewTopology(side int, pl Placement) Topology {
	if !xmath.IsPow2(side) {
		panic(fmt.Sprintf("mot: side %d must be a power of two", side))
	}
	if side > MaxSide {
		panic(fmt.Sprintf(
			"mot: side %d exceeds the int32 dense-edge ceiling: 4a(2a-2) = %d directed edges > max %d; the largest supported side is %d",
			side, int64(4*side)*int64(2*side-2), int64(1)<<31-1, MaxSide))
	}
	return Topology{Side: side, Depth: xmath.ILog2(side), Placement: pl}
}

// Nodes returns the total node count: a² leaves plus 2a(a−1) internal tree
// nodes (the O(M) "dummy processors, mere switches" of the DMBDN model).
func (t Topology) Nodes() int {
	a := t.Side
	return a*a + 2*a*(a-1)
}

// Switches returns only the non-leaf switching nodes.
func (t Topology) Switches() int { return 2 * t.Side * (t.Side - 1) }

// requestPath returns the forward path of a request from processor root
// `proc` to the module, and the index at which module service happens
// (== len(forward)); the reply path is appended after it.
//
// ModulesAtLeaves — module (row i, column j):
//
//	root(RT proc) ⇓ leaf(proc,j) ⇑ root(CT j) ⇓ leaf(i,j) [serve] and back.
//
// ModulesAtRoots — module at root i:
//
//	root(RT proc) ⇓ leaf(proc,i) ⇑ root(CT i) [serve] and back.
func (t Topology) requestPath(proc, row, col int) []uint64 {
	d := t.Depth
	path := make([]uint64, 0, 6*d)
	// Down row tree `proc` to leaf column `col`.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, proc, l, col>>(d-l)))
	}
	// Up column tree `col` from leaf position `proc` to its root.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindCol, dirUp, col, l, proc>>(d-l)))
	}
	if t.Placement == ModulesAtLeaves {
		// Down column tree `col` to leaf row `row`.
		for l := 1; l <= d; l++ {
			path = append(path, edgeID(kindCol, dirDown, col, l, row>>(d-l)))
		}
	}
	// --- service point: len(path) ---
	// Reply: exact reverse.
	if t.Placement == ModulesAtLeaves {
		for l := d; l >= 1; l-- {
			path = append(path, edgeID(kindCol, dirUp, col, l, row>>(d-l)))
		}
	}
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindCol, dirDown, col, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, proc, l, col>>(d-l)))
	}
	return path
}

// servicePos returns the index within a requestPath at which the packet is
// served by the module.
func (t Topology) servicePos() int {
	if t.Placement == ModulesAtLeaves {
		return 3 * t.Depth
	}
	return 2 * t.Depth
}

// requestPathRowRail returns the dual-rail alternative path of Theorem 3's
// closing remark ("we can simultaneously access along both rows and
// columns"): the final delivery to module (row, col) rides ROW tree `row`
// instead of column tree `col`, making the a rows a second, independent
// set of banks:
//
//	root(RT proc) ⇓ leaf(proc,row) ⇑ root(CT row)=root(RT row)
//	⇓ leaf(row,col) [serve] and back.
//
// Same 6d length and the same 3d service position as the column rail.
// Only meaningful for ModulesAtLeaves.
func (t Topology) requestPathRowRail(proc, row, col int) []uint64 {
	d := t.Depth
	path := make([]uint64, 0, 6*d)
	// Down row tree `proc` to leaf column `row`.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, proc, l, row>>(d-l)))
	}
	// Up column tree `row` from leaf position `proc` to the coalesced root.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindCol, dirUp, row, l, proc>>(d-l)))
	}
	// Down ROW tree `row` to leaf column `col` — the rail switch.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, row, l, col>>(d-l)))
	}
	// --- service at leaf (row, col) ---
	// Reply: exact reverse.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, row, l, col>>(d-l)))
	}
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindCol, dirDown, row, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, proc, l, row>>(d-l)))
	}
	return path
}
