// Package butterfly implements the bounded-degree butterfly network that
// the probabilistic P-RAM emulations the paper cites actually ran on
// (Upfal 1984; Karlin & Upfal 1986; Ranade 1987): n = 2^d inputs, d+1
// levels, degree 4, with greedy destination-tag routing, per-edge FIFO
// queues of constant capacity, and Ranade-style COMBINING of requests for
// the same address — the mechanism that keeps queues O(1).
//
// The simulation is synchronous (one hop per cycle, one packet per
// directed edge per cycle) and is used by the hashing baseline to charge
// physically meaningful cycles instead of abstract module loads.
package butterfly

import (
	"fmt"
	"sort"

	"repro/internal/xmath"
)

// Packet is one routed request: from processor Src (level-0 row) to memory
// module Dst (level-d row), carrying an address used for combining.
type Packet struct {
	Src  int
	Dst  int
	Addr int // requests with equal Addr combine at merge points
}

// Stats aggregates routing-phase counters.
type Stats struct {
	Cycles   int64 // total simulated cycles
	Hops     int64 // edge traversals (combined packets count once)
	Combined int64 // packets absorbed into an equivalent one
	MaxQueue int   // deepest per-node queue observed
}

// Network is an n-input butterfly (n a power of two).
type Network struct {
	n, d int
	// QueueCap bounds each node's input queue; packets that would
	// overflow stall their upstream sender (backpressure). Ranade's
	// result is that constant capacity suffices; 4 is the default.
	QueueCap int

	stats Stats
}

// New builds an n-input butterfly network simulator.
func New(n int, queueCap int) *Network {
	if !xmath.IsPow2(n) {
		panic(fmt.Sprintf("butterfly: n=%d must be a power of two", n))
	}
	if queueCap <= 0 {
		queueCap = 4
	}
	return &Network{n: n, d: xmath.ILog2(n), QueueCap: queueCap}
}

// Depth returns d = log2 n, the number of routing levels.
func (nw *Network) Depth() int { return nw.d }

// Stats returns cumulative counters.
func (nw *Network) Stats() Stats { return nw.stats }

// flight is an in-flight packet (possibly representing several combined
// originals).
type flight struct {
	pkt     Packet
	level   int // current level (0 = injected, d = delivered)
	row     int
	members int // how many original packets this flight represents
}

// nodeKey identifies a butterfly node.
func nodeKey(level, row int) int { return level<<24 | row }

// RouteBatch routes one batch of packets from their sources to their
// destination modules (forward direction only; replies retrace the path
// with the same aggregate cost, so callers double the returned cycles for
// round trips). It returns the makespan in cycles.
//
// Combining: when two packets with the same Addr meet in a node's queue,
// they merge into one flight (Ranade's combining), so concurrent accesses
// to one variable never multiply traffic.
func (nw *Network) RouteBatch(pkts []Packet) int64 {
	if len(pkts) == 0 {
		return 0
	}
	// Per-node queues of flights awaiting their next hop.
	queues := make(map[int][]*flight)
	inject := make([]*flight, 0, len(pkts))
	for _, p := range pkts {
		if p.Src < 0 || p.Src >= nw.n || p.Dst < 0 || p.Dst >= nw.n {
			panic(fmt.Sprintf("butterfly: packet %+v out of range n=%d", p, nw.n))
		}
		inject = append(inject, &flight{pkt: p, level: 0, row: p.Src, members: 1})
	}
	// Deterministic order: by source then address.
	sort.Slice(inject, func(i, j int) bool {
		if inject[i].pkt.Src != inject[j].pkt.Src {
			return inject[i].pkt.Src < inject[j].pkt.Src
		}
		return inject[i].pkt.Addr < inject[j].pkt.Addr
	})
	for _, f := range inject {
		nw.enqueue(queues, nodeKey(0, f.row), f)
	}

	var cycles int64
	remaining := 0 // distinct flights (combined groups count once)
	//pram:unordered summing queue lengths is commutative
	for _, q := range queues {
		remaining += len(q)
	}
	const safetyCap = 1 << 24
	for remaining > 0 {
		cycles++
		if cycles > safetyCap {
			panic("butterfly: routing failed to make progress")
		}
		// Each node forwards its head flight one level per cycle; each
		// directed edge carries one flight per cycle; each output module
		// consumes one flight per cycle. Collect moves first, apply after
		// (synchronous step). Nodes are processed in sorted order for
		// determinism.
		type move struct {
			from int
			f    *flight
			to   int
		}
		var moves []move
		nodes := make([]int, 0, len(queues))
		//pram:unordered key collection; nodes is sorted before use below
		for k := range queues {
			if len(queues[k]) > 0 {
				nodes = append(nodes, k)
			}
		}
		sort.Ints(nodes)
		usedEdge := map[int64]bool{}
		delivered := map[int]bool{} // modules that consumed this cycle
		planned := map[int]int{}    // additions already scheduled per node
		for _, k := range nodes {
			f := queues[k][0]
			bit := (f.row ^ f.pkt.Dst) >> uint(f.level) & 1
			nextRow := f.row
			if bit == 1 {
				nextRow = f.row ^ (1 << uint(f.level))
			}
			to := nodeKey(f.level+1, nextRow)
			edge := int64(k)<<32 | int64(to)
			if usedEdge[edge] {
				continue // edge busy this cycle
			}
			if f.level+1 == nw.d {
				// Final hop: the module consumes one flight per cycle.
				if delivered[nextRow] {
					continue
				}
				delivered[nextRow] = true
			} else if nw.wouldOverflow(queues[to], planned[to], f) {
				continue // backpressure from a full downstream queue
			} else {
				planned[to]++
			}
			usedEdge[edge] = true
			moves = append(moves, move{from: k, f: f, to: to})
		}
		for _, mv := range moves {
			queues[mv.from] = queues[mv.from][1:]
			mv.f.level++
			mv.f.row = mv.to & ((1 << 24) - 1)
			nw.stats.Hops++
			if mv.f.level == nw.d {
				remaining-- // consumed by the module
				continue
			}
			merged := nw.enqueue(queues, mv.to, mv.f)
			if merged {
				remaining--
			}
		}
	}
	nw.stats.Cycles += cycles
	return cycles
}

// enqueue adds f to node k's queue, combining with an existing flight for
// the same address when possible. It reports whether f merged into an
// existing flight. Queue-depth stats cover only internal nodes (level ≥ 1);
// level-0 queues are the processors' own injection buffers.
func (nw *Network) enqueue(queues map[int][]*flight, k int, f *flight) bool {
	for _, g := range queues[k] {
		if g.pkt.Addr == f.pkt.Addr && g.pkt.Dst == f.pkt.Dst {
			g.members += f.members
			nw.stats.Combined++
			return true
		}
	}
	queues[k] = append(queues[k], f)
	if k>>24 >= 1 && len(queues[k]) > nw.stats.MaxQueue {
		nw.stats.MaxQueue = len(queues[k])
	}
	return false
}

// wouldOverflow reports whether adding f to queue q — which already has
// `planned` additions scheduled this cycle — would exceed capacity
// (combinable flights never overflow).
func (nw *Network) wouldOverflow(q []*flight, planned int, f *flight) bool {
	for _, g := range q {
		if g.pkt.Addr == f.pkt.Addr && g.pkt.Dst == f.pkt.Dst {
			return false
		}
	}
	return len(q)+planned >= nw.QueueCap
}
