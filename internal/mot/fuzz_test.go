package mot

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/quorum"
)

// Property: RoutePhase always terminates, grants at least one packet when
// any were injected, and never grants a dropped packet's attempt twice.
func TestRoutePhaseAlwaysProgresses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 1 << (3 + rng.Intn(3)) // 8..32
		nw := NewNetwork(side, ModulesAtLeaves, Config{})
		k := 1 + rng.Intn(side)
		attempts := make([]quorum.Attempt, 0, k)
		used := map[int]bool{}
		for len(attempts) < k {
			p := rng.Intn(side)
			if used[p] {
				continue
			}
			used[p] = true
			attempts = append(attempts, quorum.Attempt{
				Proc:   p,
				Module: rng.Intn(side),
				Var:    rng.Intn(1024),
				Copy:   rng.Intn(8),
			})
		}
		granted, cycles, _ := nw.RoutePhase(attempts)
		if cycles <= 0 {
			return false
		}
		any := false
		for _, g := range granted {
			any = any || g
		}
		return any // at least the highest-priority packet always survives
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (queue policy): everything is granted, regardless of pattern.
func TestQueuePolicyAlwaysGrantsAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 16
		nw := NewNetwork(side, ModulesAtLeaves, Config{Policy: QueueOnCollision})
		k := 1 + rng.Intn(side)
		attempts := make([]quorum.Attempt, 0, k)
		used := map[int]bool{}
		for len(attempts) < k {
			p := rng.Intn(side)
			if used[p] {
				continue
			}
			used[p] = true
			attempts = append(attempts, quorum.Attempt{
				Proc: p, Module: rng.Intn(side), Var: rng.Intn(64), Copy: rng.Intn(4),
			})
		}
		granted, _, _ := nw.RoutePhase(attempts)
		for _, g := range granted {
			if !g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRoutePhaseOrderInvariant checks that the order of a phase's attempts
// matters only through the (Proc, index) priority: reordering them while
// each processor's own attempts keep their relative order permutes the
// grants and changes neither the cycles, the load nor the Stats. The
// ascending reorder takes the census's presorted path, as the engine's
// phases do; the random draws and reorders take its sort. Module ids are
// interned in attempt order, so the reorders also give the modules other
// phase-local ids and claim keys.
func TestRoutePhaseOrderInvariant(t *testing.T) {
	for _, side := range sweepSides {
		for ci, c := range sweepCases {
			t.Run(c.name(side, ci), func(t *testing.T) {
				base := NewNetwork(side, c.pl, c.config())
				ascending := NewNetwork(side, c.pl, c.config())
				shuffled := NewNetwork(side, c.pl, c.config())
				rng := rand.New(rand.NewSource(int64(97*side + ci)))
				for phase := 0; phase < 12; phase++ {
					attempts := refAttempts(rng, side, c.dualRail, phaseLoad(phase%3))
					g, cycles, load := base.RoutePhase(attempts)
					want := slices.Clone(g)
					for _, r := range []struct {
						nw   *Network
						perm []int
					}{
						{ascending, byProc(attempts)},
						{shuffled, priorityShuffle(rng, attempts)},
					} {
						moved := make([]quorum.Attempt, len(attempts))
						for j, i := range r.perm {
							moved[j] = attempts[i]
						}
						gm, cm, lm := r.nw.RoutePhase(moved)
						if cm != cycles || lm != load {
							t.Fatalf("phase %d: reordered (cycles=%d load=%d) != original (cycles=%d load=%d)",
								phase, cm, lm, cycles, load)
						}
						for j, i := range r.perm {
							if gm[j] != want[i] {
								t.Fatalf("phase %d: attempt %d moved to %d: grant %v, want %v", phase, i, j, gm[j], want[i])
							}
						}
					}
				}
				if base.Stats() != ascending.Stats() || base.Stats() != shuffled.Stats() {
					t.Fatalf("stats diverged:\n original  %+v\n ascending %+v\n shuffled  %+v",
						base.Stats(), ascending.Stats(), shuffled.Stats())
				}
			})
		}
	}
}

// byProc returns the attempt indices stably sorted by processor.
func byProc(attempts []quorum.Attempt) []int {
	perm := make([]int, len(attempts))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int { return attempts[x].Proc - attempts[y].Proc })
	return perm
}

// priorityShuffle returns a random order of the attempt indices in which
// each processor's attempts keep their relative order: it shuffles the
// indices, then hands the slots a processor landed on back to its
// attempts in ascending order.
func priorityShuffle(rng *rand.Rand, attempts []quorum.Attempt) []int {
	perm := rng.Perm(len(attempts))
	next := map[int][]int{} // per processor: its attempt indices, ascending
	for i, a := range attempts {
		next[a.Proc] = append(next[a.Proc], i)
	}
	for j, i := range perm {
		p := attempts[i].Proc
		perm[j], next[p] = next[p][0], next[p][1:]
	}
	return perm
}

// FuzzRoutePhase is the differential harness as a fuzz target: a fuzzed
// byte string drives topology choice and per-phase attempt streams through
// the reference router (reference_test.go) and the production network,
// which must stay bit-for-bit identical (grants, cycles, loads, stats) on
// every input the fuzzer invents. A capacity bump mid-stream exercises
// SetBandwidth on both.
func FuzzRoutePhase(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x03, 0x41, 0x7f, 0x10, 0xee})
	f.Add(int64(42), uint8(3), []byte{0xff, 0x00, 0xa5, 0x5a})
	f.Add(int64(7), uint8(13), []byte{0x01})
	f.Add(int64(19), uint8(21), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, stream []byte) {
		side := 8 << (shape % 3) // 8..32
		pl := ModulesAtLeaves
		if shape&4 != 0 {
			pl = ModulesAtRoots
		}
		pol := DropOnCollision
		if shape&8 != 0 {
			pol = QueueOnCollision
		}
		dualRail := pl == ModulesAtLeaves && shape&16 != 0
		cfg := Config{Policy: pol, DualRail: dualRail}
		ref := newRefNetwork(side, pl, cfg)
		nw := NewNetwork(side, pl, cfg)
		rng := rand.New(rand.NewSource(seed))
		banks := side
		if dualRail {
			banks = 2 * side
		}
		// Each stream byte seeds one attempt; phase boundaries every
		// `side` attempts keep phases non-trivial.
		var attempts []quorum.Attempt
		phases := 0
		flush := func() {
			if len(attempts) == 0 {
				return
			}
			if phases == 2 {
				ref.SetBandwidth(2)
				nw.SetBandwidth(2)
			}
			phases++
			gr, cr, lr := ref.RoutePhase(attempts)
			gn, cn, ln := nw.RoutePhase(attempts)
			if cr != cn || lr != ln {
				t.Fatalf("reference (cycles=%d load=%d) != network (%d/%d)", cr, lr, cn, ln)
			}
			for i := range gn {
				if gr[i] != gn[i] {
					t.Fatalf("grant[%d]: reference=%v network=%v", i, gr[i], gn[i])
				}
			}
			attempts = attempts[:0]
		}
		for _, b := range stream {
			attempts = append(attempts, quorum.Attempt{
				Proc:   int(b) % side,
				Module: (int(b) * 7 % banks) ^ rng.Intn(banks),
				Var:    rng.Intn(512),
				Copy:   int(b >> 5),
				Write:  b&1 == 1,
			})
			if len(attempts) >= side {
				flush()
			}
		}
		flush()
		if ref.Stats() != nw.Stats() {
			t.Fatalf("stats diverged:\n reference %+v\n network   %+v", ref.Stats(), nw.Stats())
		}
		checkDropReplies(t, ref)
	})
}

// TestStatsMonotone: cumulative counters never decrease across phases.
func TestStatsMonotone(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{})
	rng := rand.New(rand.NewSource(4))
	var prev Stats
	for round := 0; round < 10; round++ {
		attempts := []quorum.Attempt{
			{Proc: rng.Intn(16), Module: rng.Intn(16), Var: rng.Intn(32)},
		}
		nw.RoutePhase(attempts)
		cur := nw.Stats()
		if cur.Cycles < prev.Cycles || cur.Hops < prev.Hops || cur.Served < prev.Served {
			t.Fatalf("stats regressed: %+v -> %+v", prev, cur)
		}
		prev = cur
	}
}

// TestBandwidthSetterAffectsServiceRate: two packets reaching the SAME
// module simultaneously via the two independent rails (column rail and
// row rail) are serialized at capacity 1 but served together at capacity
// 2. (Same-rail packets serialize on shared tree edges before the module,
// so dual rail is the only way two packets arrive in the same cycle.)
func TestBandwidthSetterAffectsServiceRate(t *testing.T) {
	const side = 16
	mk := func(capacity int) int64 {
		nw := NewNetwork(side, ModulesAtLeaves, Config{
			Policy:   QueueOnCollision,
			DualRail: true,
			// The free coordinate: row 3 for the col-rail packet (var 1),
			// column 5 for the row-rail packet (var 2) — both end at
			// module (3,5) via fully disjoint trees.
			RowOf: func(v, cp int) int {
				if v == 1 {
					return 3
				}
				return 5
			},
		})
		nw.SetBandwidth(capacity)
		attempts := []quorum.Attempt{
			// Column rail: bank/col 5, row 3 → module (3,5) via CT(5).
			{Proc: 1, Module: 5, Var: 1, Copy: 0},
			// Row rail: row bank 3, col 5 → module (3,5) via CT(3)+RT(3).
			{Proc: 2, Module: side + 3, Var: 2, Copy: 0},
		}
		granted, cycles, load := nw.RoutePhase(attempts)
		if !granted[0] || !granted[1] {
			t.Fatal("queue policy must grant both")
		}
		if load != 2 {
			t.Fatalf("expected both packets on one module, load=%d", load)
		}
		return cycles
	}
	if mk(2) >= mk(1) {
		t.Error("higher module bandwidth did not reduce cycles")
	}
}
