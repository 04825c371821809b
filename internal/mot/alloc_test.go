package mot

import (
	"math/rand"
	"testing"

	"repro/internal/quorum"
)

// routeAttempts builds a deterministic mixed attempt set like the engine
// emits: k packets from ascending processor ids (several per processor
// when k exceeds side), scattered banks.
func routeAttempts(side, k int, dualRail bool, seed int64) []quorum.Attempt {
	rng := rand.New(rand.NewSource(seed))
	banks := side
	if dualRail {
		banks = 2 * side
	}
	attempts := make([]quorum.Attempt, k)
	for i := range attempts {
		attempts[i] = quorum.Attempt{
			Proc:   i * side / k,
			Module: rng.Intn(banks),
			Var:    rng.Intn(4096),
			Copy:   rng.Intn(4),
		}
	}
	return attempts
}

// TestRoutePhaseZeroAllocs locks the router's steady-state zero-allocation
// invariant across placements, policies, dual rail and phase sizes: a
// quarter of the roots (mostly quiet packets), one packet per root, four
// per root (every tree shared, deep module queues), and the small and the
// large phase in turn, which must reuse the tables the large one grew.
func TestRoutePhaseZeroAllocs(t *testing.T) {
	cases := []struct {
		name     string
		pl       Placement
		pol      Policy
		dualRail bool
	}{
		{"leaves-drop", ModulesAtLeaves, DropOnCollision, false},
		{"leaves-queue", ModulesAtLeaves, QueueOnCollision, false},
		{"leaves-drop-dual", ModulesAtLeaves, DropOnCollision, true},
		{"leaves-queue-dual", ModulesAtLeaves, QueueOnCollision, true},
		{"roots-drop", ModulesAtRoots, DropOnCollision, false},
		{"roots-queue", ModulesAtRoots, QueueOnCollision, false},
	}
	const side = 64
	sizes := []struct {
		name string
		ks   []int // phase sizes, routed in turn
	}{
		{"k=16", []int{16}},
		{"k=64", []int{64}},
		{"k=256", []int{256}},
		{"k=16+256", []int{16, 256}},
	}
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	for _, c := range cases {
		for _, sz := range sizes {
			t.Run(c.name+"/"+sz.name, func(t *testing.T) {
				nw := NewNetwork(side, c.pl, Config{Policy: c.pol, DualRail: c.dualRail})
				phases := make([][]quorum.Attempt, len(sz.ks))
				for i, k := range sz.ks {
					phases[i] = routeAttempts(side, k, c.dualRail, 9)
				}
				route := func() {
					for _, attempts := range phases {
						nw.RoutePhase(attempts)
					}
				}
				for i := 0; i < 3; i++ { // grow the arenas
					route()
				}
				if avg := testing.AllocsPerRun(20, route); avg != 0 {
					t.Errorf("RoutePhase allocates %.1f per round of %v phases in steady state, want 0", avg, sz.ks)
				}
			})
		}
	}
}

// walkEdges returns the dense edge ids the walk computes for the path from
// processor proc to the module at grid leaf (row, col).
func walkEdges(nw *Network, proc, row, col int, rowRail bool) []int32 {
	side, d := nw.topo.Side, nw.topo.Depth
	a := quorum.Attempt{Proc: proc, Module: col}
	if rowRail {
		a.Module = side + row
	}
	nw.modLeaf = []int32{int32(row*side + col)}
	var legs [6]leg
	var ids []int32
	for _, lg := range nw.layout(&legs, &a, 0) {
		for h := 0; h < d; h++ {
			ids = append(ids, lg.edge(h, d))
		}
	}
	return ids
}

// TestDensePathMatchesEdgeIDs locks the walk's dense edge ids to the packed
// uint64 edge ids: paths generated both ways must agree position by
// position, with equal dense indices exactly where the packed ids are equal.
func TestDensePathMatchesEdgeIDs(t *testing.T) {
	for _, pl := range []Placement{ModulesAtLeaves, ModulesAtRoots} {
		nw := NewNetwork(16, pl, Config{})
		topo := nw.Topology()
		rng := rand.New(rand.NewSource(3))
		denseOf := map[uint64]int32{}
		keyOf := map[int32]uint64{}
		check := func(packed []uint64, dense []int32) {
			t.Helper()
			if len(packed) != len(dense) {
				t.Fatalf("path lengths differ: %d vs %d", len(packed), len(dense))
			}
			for i, k := range packed {
				d := dense[i]
				if int64(d) < 0 || int64(d) >= int64(topo.DenseEdgeSpace()) {
					t.Fatalf("dense index %d out of range [0,%d)", d, topo.DenseEdgeSpace())
				}
				if prev, ok := denseOf[k]; ok && prev != d {
					t.Fatalf("packed id %x mapped to dense %d and %d", k, prev, d)
				}
				if prev, ok := keyOf[d]; ok && prev != k {
					t.Fatalf("dense id %d mapped to packed %x and %x", d, prev, k)
				}
				denseOf[k] = d
				keyOf[d] = k
			}
		}
		for trial := 0; trial < 50; trial++ {
			proc, row, col := rng.Intn(16), rng.Intn(16), rng.Intn(16)
			if pl == ModulesAtRoots {
				row = 0
			}
			check(topo.requestPath(proc, row, col), walkEdges(nw, proc, row, col, false))
			if pl == ModulesAtLeaves {
				check(topo.requestPathRowRail(proc, row, col), walkEdges(nw, proc, row, col, true))
			}
		}
	}
}
