package mot

import (
	"strings"
	"testing"

	"repro/internal/quorum"
)

func TestTopologyCounts(t *testing.T) {
	topo := NewTopology(8, ModulesAtLeaves)
	if topo.Depth != 3 {
		t.Errorf("depth = %d, want 3", topo.Depth)
	}
	// 64 leaves + 2·8·7 = 112 switches = 176 nodes.
	if topo.Nodes() != 176 {
		t.Errorf("nodes = %d, want 176", topo.Nodes())
	}
	if topo.Switches() != 112 {
		t.Errorf("switches = %d, want 112", topo.Switches())
	}
}

func TestTopologyPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopology(12) did not panic")
		}
	}()
	NewTopology(12, ModulesAtLeaves)
}

// TestTopologyDenseEdgeCeiling pins the int32 dense-edge boundary: MaxSide
// is the largest side whose 8a²−8a directed edges fit int32, and the next
// power of two must be refused loudly instead of wrapping dense indices.
func TestTopologyDenseEdgeCeiling(t *testing.T) {
	topo := NewTopology(MaxSide, ModulesAtLeaves)
	space := int64(4*topo.Side) * int64(2*topo.Side-2)
	if space != int64(topo.DenseEdgeSpace()) || space > 1<<31-1 {
		t.Fatalf("side %d: dense edge space %d (DenseEdgeSpace %d) must fit int32", MaxSide, space, topo.DenseEdgeSpace())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("NewTopology(%d) did not panic", 2*MaxSide)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "dense-edge ceiling") || !strings.Contains(msg, "16384") {
			t.Fatalf("ceiling panic message %q does not name the ceiling and the max side", r)
		}
	}()
	NewTopology(2*MaxSide, ModulesAtLeaves)
}

func TestRequestPathLengths(t *testing.T) {
	leaves := NewTopology(16, ModulesAtLeaves)
	p := leaves.requestPath(3, 9, 12)
	if len(p) != 6*leaves.Depth {
		t.Errorf("leaves path length = %d, want %d", len(p), 6*leaves.Depth)
	}
	if leaves.servicePos() != 3*leaves.Depth {
		t.Errorf("service pos = %d, want %d", leaves.servicePos(), 3*leaves.Depth)
	}
	roots := NewTopology(16, ModulesAtRoots)
	p = roots.requestPath(3, 0, 12)
	if len(p) != 4*roots.Depth {
		t.Errorf("roots path length = %d, want %d", len(p), 4*roots.Depth)
	}
	if roots.servicePos() != 2*roots.Depth {
		t.Errorf("service pos = %d, want %d", roots.servicePos(), 2*roots.Depth)
	}
}

func TestRequestPathEdgesDistinctPerLeg(t *testing.T) {
	topo := NewTopology(8, ModulesAtLeaves)
	p := topo.requestPath(1, 5, 6)
	seen := map[uint64]int{}
	for _, e := range p {
		seen[e]++
	}
	// Forward and reply legs reuse nodes but in opposite directions, so
	// every directed edge appears exactly once.
	for e, k := range seen {
		if k != 1 {
			t.Errorf("edge %x appears %d times", e, k)
		}
	}
}

func TestSinglePacketLatency(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{})
	granted, cycles, load := nw.RoutePhase([]quorum.Attempt{
		{Proc: 2, Module: 7, Var: 11, Copy: 0},
	})
	if !granted[0] {
		t.Fatal("lone packet not granted")
	}
	// 6d hops + 1 service cycle, d = 4.
	want := int64(6*4 + 1)
	if cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
	if load != 1 {
		t.Errorf("load = %d, want 1", load)
	}
}

func TestRootPlacementLatency(t *testing.T) {
	nw := NewNetwork(16, ModulesAtRoots, Config{})
	granted, cycles, _ := nw.RoutePhase([]quorum.Attempt{
		{Proc: 0, Module: 9, Var: 3, Copy: 1},
	})
	if !granted[0] {
		t.Fatal("lone packet not granted")
	}
	want := int64(4*4 + 1)
	if cycles != want {
		t.Errorf("cycles = %d, want %d", cycles, want)
	}
}

func TestDisjointPacketsAllGranted(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{})
	// Distinct processors, distinct banks: no shared edges.
	attempts := []quorum.Attempt{
		{Proc: 0, Module: 1, Var: 1, Copy: 0},
		{Proc: 5, Module: 9, Var: 2, Copy: 0},
		{Proc: 11, Module: 14, Var: 3, Copy: 0},
	}
	granted, cycles, _ := nw.RoutePhase(attempts)
	for i, g := range granted {
		if !g {
			t.Errorf("packet %d refused on a collision-free phase", i)
		}
	}
	if cycles != 6*4+1 {
		t.Errorf("parallel phase took %d cycles, want %d", cycles, 6*4+1)
	}
}

func TestColumnCollisionDropsLoser(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{})
	// Same bank/column, same variable row targets would still share the
	// column-tree ascent: lower proc id must win, the other be refused.
	attempts := []quorum.Attempt{
		{Proc: 3, Module: 5, Var: 40, Copy: 0},
		{Proc: 9, Module: 5, Var: 41, Copy: 0},
	}
	granted, _, _ := nw.RoutePhase(attempts)
	if !granted[0] {
		t.Error("higher-priority packet (proc 3) refused")
	}
	if granted[1] {
		t.Error("lower-priority packet granted despite column collision")
	}
	if nw.Stats().Collisions == 0 {
		t.Error("collision not counted")
	}
}

func TestQueuePolicyGrantsEverything(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{Policy: QueueOnCollision})
	attempts := []quorum.Attempt{
		{Proc: 3, Module: 5, Var: 40, Copy: 0},
		{Proc: 9, Module: 5, Var: 41, Copy: 0},
		{Proc: 12, Module: 5, Var: 42, Copy: 0},
	}
	granted, cycles, _ := nw.RoutePhase(attempts)
	for i, g := range granted {
		if !g {
			t.Errorf("packet %d refused under queue policy", i)
		}
	}
	if cycles <= 6*4+1 {
		t.Errorf("queued phase took %d cycles, should exceed the uncontended %d", cycles, 6*4+1)
	}
}

func TestModuleServiceSerializes(t *testing.T) {
	// Two packets to the SAME module (same var, same copy can't happen via
	// the engine, so use same bank and force the same row via RowOf).
	nw := NewNetwork(16, ModulesAtLeaves, Config{
		Policy: QueueOnCollision,
		RowOf:  func(v, cp int) int { return 4 },
	})
	attempts := []quorum.Attempt{
		{Proc: 1, Module: 5, Var: 40, Copy: 0},
		{Proc: 9, Module: 5, Var: 41, Copy: 0},
	}
	granted, _, load := nw.RoutePhase(attempts)
	if !granted[0] || !granted[1] {
		t.Fatal("queue policy must grant both")
	}
	if load != 2 {
		t.Errorf("module load = %d, want 2", load)
	}
	if nw.Stats().Served != 2 {
		t.Errorf("served = %d, want 2", nw.Stats().Served)
	}
}

func TestStatsAccumulateAcrossPhases(t *testing.T) {
	nw := NewNetwork(8, ModulesAtLeaves, Config{})
	for i := 0; i < 3; i++ {
		nw.RoutePhase([]quorum.Attempt{{Proc: i, Module: i, Var: i, Copy: 0}})
	}
	st := nw.Stats()
	if st.Served != 3 {
		t.Errorf("served = %d, want 3", st.Served)
	}
	if st.Hops != 3*6*3 { // 3 packets × 6d hops, d=3
		t.Errorf("hops = %d, want %d", st.Hops, 3*6*3)
	}
	if st.Cycles != 3*(6*3+1) {
		t.Errorf("cycles = %d, want %d", st.Cycles, 3*(6*3+1))
	}
}

func TestEmptyPhaseFree(t *testing.T) {
	nw := NewNetwork(8, ModulesAtLeaves, Config{})
	granted, cycles, load := nw.RoutePhase(nil)
	if len(granted) != 0 || cycles != 0 || load != 0 {
		t.Error("empty phase should be free")
	}
}

// TestProcBeyondRootsPanics: a processor id outside [0, side) or a module
// id outside the network's banks is refused with a named panic instead of
// indexing out of range or folding onto another bank, and so is a pair of
// attempts out of processor order; the range checks come first, so an
// out-of-range attempt after processor 2 is named for its range. The
// refused phase leaves no census counts behind.
func TestProcBeyondRootsPanics(t *testing.T) {
	cases := []struct {
		name string
		pl   Placement
		cfg  Config
		att  quorum.Attempt
		want string
	}{
		{"proc=side", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 8, Module: 0}, "processor id"},
		{"proc=-1", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: -1, Module: 0}, "processor id"},
		{"module=side", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 1, Module: 8}, "module id"},
		{"module=-5", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 1, Module: -5}, "module id"},
		{"module=2side-dual", ModulesAtLeaves, Config{DualRail: true}, quorum.Attempt{Proc: 1, Module: 16}, "module id"},
		{"module=side-roots", ModulesAtRoots, Config{DualRail: true}, quorum.Attempt{Proc: 1, Module: 8}, "module id"},
		{"descending", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 1, Module: 4}, "attempt 1 (processor 1) follows processor 2"},
		{"descending-roots", ModulesAtRoots, Config{}, quorum.Attempt{Proc: 0, Module: 3}, "attempt 1 (processor 0) follows processor 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := NewNetwork(8, c.pl, c.cfg)
			ok := quorum.Attempt{Proc: 2, Module: 3, Var: 5}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.want) {
						t.Errorf("panic %q does not name the %s", msg, c.want)
					}
				}()
				nw.RoutePhase([]quorum.Attempt{ok, c.att})
			}()
			granted, cycles, _ := nw.RoutePhase([]quorum.Attempt{ok})
			if want := int64(2*nw.Topology().servicePos() + 1); !granted[0] || cycles != want {
				t.Errorf("after the refused phase a lone packet took %d cycles (granted %v), want %d",
					cycles, granted[0], want)
			}
			if len(nw.walked) != 0 {
				t.Error("the refused phase left its census counts behind: a lone packet was walked")
			}
		})
	}
}

func TestPlacementString(t *testing.T) {
	if ModulesAtLeaves.String() != "modules-at-leaves" || ModulesAtRoots.String() != "modules-at-roots" {
		t.Error("Placement.String wrong")
	}
}
