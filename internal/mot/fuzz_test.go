package mot

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
		sortByProc(attempts)
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
		sortByProc(attempts)
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

// TestRoutePhaseRefusesOutOfOrder: under every placement, policy, rail and
// module capacity of the sweep, a phase with two attempts swapped out of
// processor order is refused with a panic naming its first descending
// pair, and the refusal leaves the network as it found it: the phase
// routed in order next takes the same grants, cycles, load and walked
// packets as on a twin network that never saw the refused phase, and the
// two end with the same Stats. The census has counted the attempts before
// the descending pair when it refuses, so a count left behind would turn
// a quiet packet of the next phase into a walked one.
func TestRoutePhaseRefusesOutOfOrder(t *testing.T) {
	for _, side := range sweepSides {
		for ci, c := range sweepCases {
			t.Run(c.name(side, ci), func(t *testing.T) {
				nw := NewNetwork(side, c.pl, c.config())
				twin := NewNetwork(side, c.pl, c.config())
				rng := rand.New(rand.NewSource(int64(97*side + ci)))
				refused := 0
				for phase := 0; phase < 12; phase++ {
					attempts := refAttempts(rng, side, c.dualRail, phaseLoad(phase%3))
					if moved, want := descendingCopy(rng, attempts); moved != nil {
						refused++
						func() {
							defer func() {
								if msg, _ := recover().(string); !strings.Contains(msg, want) {
									t.Errorf("phase %d: panic %q, want one naming %q", phase, msg, want)
								}
							}()
							nw.RoutePhase(moved)
						}()
					}
					g, cycles, load := nw.RoutePhase(attempts)
					tg, tcycles, tload := twin.RoutePhase(attempts)
					if !slices.Equal(g, tg) || cycles != tcycles || load != tload || !slices.Equal(nw.walked, twin.walked) {
						t.Fatalf("phase %d after a refusal: grants %v, cycles %d, load %d, walked %v; twin %v, %d, %d, %v",
							phase, g, cycles, load, nw.walked, tg, tcycles, tload, twin.walked)
					}
				}
				if refused == 0 {
					t.Fatal("no phase had two processors to swap")
				}
				if nw.Stats() != twin.Stats() {
					t.Fatalf("stats diverged:\n refusing %+v\n twin     %+v", nw.Stats(), twin.Stats())
				}
			})
		}
	}
}

// descendingCopy returns a copy of the in-order phase attempts with an
// attempt swapped with a later one of a higher processor, and the text
// of the panic that names the copy's first descending pair; it returns
// nil when every attempt has one processor.
func descendingCopy(rng *rand.Rand, attempts []quorum.Attempt) ([]quorum.Attempt, string) {
	var higher []int // the attempts whose processor is above the first's
	for j, a := range attempts {
		if a.Proc > attempts[0].Proc {
			higher = append(higher, j)
		}
	}
	if len(higher) == 0 {
		return nil, ""
	}
	j := higher[rng.Intn(len(higher))]
	// The attempts before the first of attempts[j]'s processor are all of
	// lower processors, and there is at least one: attempts[0].
	first := slices.IndexFunc(attempts, func(a quorum.Attempt) bool { return a.Proc == attempts[j].Proc })
	i := rng.Intn(first)
	moved := slices.Clone(attempts)
	moved[i], moved[j] = moved[j], moved[i]
	k := 1
	for moved[k].Proc >= moved[k-1].Proc {
		k++
	}
	return moved, fmt.Sprintf("attempt %d (processor %d) follows processor %d", k, moved[k].Proc, moved[k-1].Proc)
}

// sortByProc puts a phase's attempts in the order RoutePhase takes them:
// stably by processor, so one processor's attempts keep their relative
// order.
func sortByProc(attempts []quorum.Attempt) {
	slices.SortStableFunc(attempts, func(x, y quorum.Attempt) int { return x.Proc - y.Proc })
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

// FuzzRoutePhase is the differential harness as a fuzz target: a fuzzed
// byte string drives topology choice and per-phase attempt streams through
// the reference router (reference_test.go) and the production network,
// which must stay bit-for-bit identical (grants, cycles, loads, stats) on
// every input the fuzzer invents. Each phase is sorted stably by
// processor before it reaches the routers, as the engine's phases arrive.
// A capacity bump mid-stream exercises SetBandwidth on both.
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
			sortByProc(attempts)
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
