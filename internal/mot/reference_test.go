// The reference router: the synchronous cycle loop the network models, in
// the most naive form available — heap packets, packed uint64 edge ids
// from the requestPath generators (NOT the dense indices the production
// walk computes), map-based claim sets and module counters, every packet
// advanced every cycle, no census, no closed form, no reused buffers — as
// the independent oracle the census-and-walk router is swept against.
// Living in a _test.go file keeps it out of product builds while letting
// the differential tests and FuzzRoutePhase use it without ceremony.
package mot

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// refPacket is one packet: a heap struct per attempt.
type refPacket struct {
	attempt int
	prio    int
	path    []uint64 // packed edge ids (edgeID), not dense indices
	pos     int
	service int
	module  int // grid module id row·side+col
	served  bool
}

// refNetwork mirrors Network's observable contract (RoutePhase,
// SetBandwidth, TimeInCycles, Stats), so it also serves as a quorum
// machine's interconnect.
type refNetwork struct {
	topo  Topology
	cfg   Config
	clock int64
	stats Stats
	// dropReplyWaits counts the cycles a served packet lost a reply-leg
	// edge under DropOnCollision; checkDropReplies says why it stays 0.
	dropReplyWaits int64
}

// checkDropReplies fails t if the reference ever made a served packet wait
// on its reply legs under DropOnCollision. None can, so the router's rule
// that such a loser waits rather than being refused is never put to use.
// Under that policy every packet that survives its request legs reaches
// its module on the same cycle of the phase. A module is entered by at most
// two edges (from its column and its row tree at a leaf, from the two
// children at a root), so a packet waits there at most one cycle. A reply
// leg runs the mirror of a request leg, the same tree in the other
// direction, at mirrored times: two packets served on the same cycle share
// a reply edge on the same cycle only if they shared its mirror on the
// request leg, where the later one was refused, and packets served a cycle
// apart reach any shared edge a cycle apart. The reply legs on one
// directed tree all have the same leg index, so they cannot meet packets
// of another leg either.
func checkDropReplies(t *testing.T, ref *refNetwork) {
	t.Helper()
	if ref.cfg.Policy == DropOnCollision && ref.dropReplyWaits != 0 {
		t.Fatalf("%d reply-leg waits under DropOnCollision, want 0", ref.dropReplyWaits)
	}
}

// newRefNetwork mirrors NewNetwork's config defaulting exactly: the RowOf
// fallback must hash identically or the two routers aim packets at
// different modules.
func newRefNetwork(side int, pl Placement, cfg Config) *refNetwork {
	if cfg.ModuleCapacity <= 0 {
		cfg.ModuleCapacity = 1
	}
	if pl == ModulesAtLeaves && cfg.RowOf == nil {
		cfg.RowOf = func(v, cp int) int { return int(mix64(uint64(v)*31+uint64(cp))) & (side - 1) }
	}
	return &refNetwork{topo: NewTopology(side, pl), cfg: cfg}
}

func (rn *refNetwork) SetBandwidth(perPhase int) (previous int) {
	previous = rn.cfg.ModuleCapacity
	if perPhase < 1 {
		perPhase = 1
	}
	rn.cfg.ModuleCapacity = perPhase
	return previous
}

func (rn *refNetwork) TimeInCycles() bool { return true }

func (rn *refNetwork) Stats() Stats { return rn.stats }

// RoutePhase routes one phase cycle by cycle: build heap packets, sort
// stably by priority, then per cycle sweep the survivors claiming edges in
// a fresh map. Deliberately allocation-heavy and branchy — it is the
// oracle, not the product.
func (rn *refNetwork) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	granted := make([]bool, len(attempts))
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	side := rn.topo.Side
	pkts := make([]*refPacket, 0, len(attempts))
	modLoad := map[int]int{}
	for i, a := range attempts {
		var row, col int
		rowRail := false
		if rn.topo.Placement == ModulesAtLeaves {
			if rn.cfg.DualRail && a.Module >= side {
				rowRail = true
				row = a.Module & (side - 1)
				col = rn.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			} else {
				col = a.Module & (side - 1)
				row = rn.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			}
		} else {
			col = a.Module & (side - 1)
		}
		if a.Proc >= side {
			panic("mot: processor id exceeds root count")
		}
		var path []uint64
		if rowRail {
			path = rn.topo.requestPathRowRail(a.Proc, row, col)
		} else {
			path = rn.topo.requestPath(a.Proc, row, col)
		}
		pk := &refPacket{
			attempt: i,
			prio:    a.Proc,
			path:    path,
			service: rn.topo.servicePos(),
			module:  row*side + col,
		}
		pkts = append(pkts, pk)
		modLoad[pk.module]++
	}
	maxLoad := 0
	for _, c := range modLoad {
		if c > maxLoad {
			maxLoad = c
		}
	}
	// Priority order with attempt-index tie-break: a stable sort over the
	// injection order is exactly that.
	sort.SliceStable(pkts, func(x, y int) bool { return pkts[x].prio < pkts[y].prio })
	drop := rn.cfg.Policy == DropOnCollision
	start := rn.clock
	for len(pkts) > 0 {
		rn.clock++
		claims := map[uint64]bool{}
		modCnt := map[int]int{}
		queued := 0
		next := pkts[:0]
		for _, pk := range pkts {
			if pk.pos == pk.service && !pk.served {
				if modCnt[pk.module] < rn.cfg.ModuleCapacity {
					modCnt[pk.module]++
					pk.served = true
					rn.stats.Served++
				} else {
					queued++
				}
				next = append(next, pk)
				continue
			}
			e := pk.path[pk.pos]
			if !claims[e] {
				claims[e] = true
				pk.pos++
				rn.stats.Hops++
				if pk.pos == len(pk.path) {
					granted[pk.attempt] = true
					continue
				}
			} else if drop && !pk.served {
				rn.stats.Collisions++
				continue
			} else if drop {
				rn.dropReplyWaits++
			}
			next = append(next, pk)
		}
		pkts = next
		if queued > rn.stats.MaxQueue {
			rn.stats.MaxQueue = queued
		}
	}
	elapsed := rn.clock - start
	rn.stats.Cycles += elapsed
	return granted, elapsed, maxLoad
}

// phaseLoad is a regime of phase sizes for the random sweeps.
type phaseLoad int

const (
	// lightLoad draws up to side/2 packets: most are quiet and granted in
	// closed form, beside a few walked ones.
	lightLoad phaseLoad = iota
	// mixedLoad draws up to 2·side packets: most share a tree or a module.
	mixedLoad
	// heavyLoad draws 2·side to 4·side packets: every tree is shared and
	// the modules queue deep.
	heavyLoad
)

func (l phaseLoad) String() string {
	return [...]string{"light", "mixed", "heavy"}[l]
}

// packets draws the size of one phase under the regime.
func (l phaseLoad) packets(rng *rand.Rand, side int) int {
	switch l {
	case lightLoad:
		return 1 + rng.Intn(max(side/2, 1))
	case heavyLoad:
		return 2*side + rng.Intn(2*side+1)
	}
	return 1 + rng.Intn(2*side)
}

// refAttempts draws one phase's attempt set, including duplicate
// processor ids (priority ties) and, under dual rail, row-bank ids, and
// sorts it stably by processor, the order a phase arrives in.
func refAttempts(rng *rand.Rand, side int, dualRail bool, load phaseLoad) []quorum.Attempt {
	banks := side
	if dualRail {
		banks = 2 * side
	}
	k := load.packets(rng, side)
	attempts := make([]quorum.Attempt, k)
	for i := range attempts {
		attempts[i] = quorum.Attempt{
			Proc:   rng.Intn(side),
			Module: rng.Intn(banks),
			Var:    rng.Intn(4096),
			Copy:   rng.Intn(8),
			Write:  rng.Intn(2) == 0,
		}
	}
	sortByProc(attempts)
	return attempts
}

// runReferencePhases drives the reference and a production network
// through identical phase streams — including a mid-stream bandwidth
// change — and demands bit-for-bit equality.
func runReferencePhases(t *testing.T, side int, pl Placement, cfg Config, phases int, draw func() []quorum.Attempt) {
	t.Helper()
	ref := newRefNetwork(side, pl, cfg)
	nw := NewNetwork(side, pl, cfg)
	walked, total := 0, 0
	for phase := 0; phase < phases; phase++ {
		attempts := draw()
		if phase == phases/2 {
			ref.SetBandwidth(3)
			nw.SetBandwidth(3)
		}
		gr, cr, lr := ref.RoutePhase(attempts)
		gn, cn, ln := nw.RoutePhase(attempts)
		if cr != cn || lr != ln {
			t.Fatalf("phase %d: reference (cycles=%d load=%d) != network (cycles=%d load=%d)",
				phase, cr, lr, cn, ln)
		}
		for i := range gr {
			if gr[i] != gn[i] {
				t.Fatalf("phase %d: grant[%d] reference=%v network=%v", phase, i, gr[i], gn[i])
			}
		}
		walked += len(nw.walked)
		total += len(attempts)
	}
	if ref.Stats() != nw.Stats() {
		t.Fatalf("stats diverged:\n reference %+v\n network   %+v", ref.Stats(), nw.Stats())
	}
	checkDropReplies(t, ref)
	t.Logf("%d of %d packets walked (%.1f%%)", walked, total, 100*float64(walked)/float64(total))
}

// sweepCase is one router configuration of the small-side sweeps.
type sweepCase struct {
	pl       Placement
	pol      Policy
	dualRail bool
	capacity int
}

// sweepCases covers both placements, both policies, both rails and module
// capacities of one to three.
var sweepCases = []sweepCase{
	{ModulesAtLeaves, DropOnCollision, false, 1},
	{ModulesAtLeaves, QueueOnCollision, false, 1},
	{ModulesAtLeaves, DropOnCollision, true, 1},
	{ModulesAtLeaves, DropOnCollision, true, 3},
	{ModulesAtLeaves, QueueOnCollision, true, 2},
	{ModulesAtRoots, DropOnCollision, false, 1},
	{ModulesAtRoots, QueueOnCollision, false, 2},
}

// sweepSides are the grid sides of the small-side sweeps.
var sweepSides = []int{4, 8, 16, 32}

func (c sweepCase) name(side, ci int) string {
	return fmt.Sprintf("side=%d/case=%d/pl=%v/pol=%d/dual=%v/cap=%d",
		side, ci, c.pl, c.pol, c.dualRail, c.capacity)
}

func (c sweepCase) config() Config {
	return Config{Policy: c.pol, DualRail: c.dualRail, ModuleCapacity: c.capacity}
}

// TestReferenceDifferential sweeps the router against the reference across
// sides, placements, policies, rails, module capacities and phase loads.
func TestReferenceDifferential(t *testing.T) {
	for _, side := range sweepSides {
		for ci, c := range sweepCases {
			for _, load := range []phaseLoad{lightLoad, mixedLoad, heavyLoad} {
				t.Run(fmt.Sprintf("%s/load=%v", c.name(side, ci), load), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						rng := rand.New(rand.NewSource(seed * 1289))
						runReferencePhases(t, side, c.pl, c.config(), 6,
							func() []quorum.Attempt { return refAttempts(rng, side, c.dualRail, load) })
					}
				})
			}
		}
	}
}

// TestReferenceDifferentialProduction compares the router with the
// reference at the production grid side, on phases shaped like the
// engine's: every processor below n sends one copy access, in ascending
// order, to a uniformly drawn bank, and the default RowOf spreads the
// copies. On the column rail about 6% of the packets share a tree or a
// module at n=1024 and are walked, and about 22% at n=4096; the row
// rail's third tree raises both.
func TestReferenceDifferentialProduction(t *testing.T) {
	for _, n := range []int{1024, 4096} {
		for _, dualRail := range []bool{false, true} {
			for _, pol := range []Policy{DropOnCollision, QueueOnCollision} {
				t.Run(fmt.Sprintf("n=%d/dual=%v/pol=%d", n, dualRail, pol), func(t *testing.T) {
					banks := MaxSide
					if dualRail {
						banks = 2 * MaxSide
					}
					rng := rand.New(rand.NewSource(int64(n) + 7))
					draw := func() []quorum.Attempt {
						attempts := make([]quorum.Attempt, n)
						for p := range attempts {
							attempts[p] = quorum.Attempt{
								Proc: p, Module: rng.Intn(banks), Var: rng.Intn(1 << 20), Copy: rng.Intn(8),
							}
						}
						return attempts
					}
					runReferencePhases(t, MaxSide, ModulesAtLeaves, Config{Policy: pol, DualRail: dualRail}, 4, draw)
				})
			}
		}
	}
}

// TestReferenceMachineSteps runs whole quorum machines over one Theorem 3
// map, one on the router and one on the reference, through the same
// random step streams, and compares every StepReport, the final memory and
// the network Stats. The engine feeds each phase from the previous phase's
// grants and the two-stage schedule retunes the module bandwidth, so a
// single divergent phase compounds and is caught here.
func TestReferenceMachineSteps(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		twoStage bool
	}{
		{"plain", Config{}, false},
		{"dualrail", Config{DualRail: true}, false},
		{"twostage", Config{}, true},
		{"dualrail-twostage", Config{DualRail: true}, true},
		{"queue", Config{Policy: QueueOnCollision}, false},
		{"queue-dualrail", Config{Policy: QueueOnCollision, DualRail: true}, false},
		{"queue-twostage", Config{Policy: QueueOnCollision}, true},
	}
	const steps = 8
	for _, n := range []int{16, 32, 64} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(t *testing.T) {
				p, side := memmap.TheoremThree(n, 2, 2)
				if c.cfg.DualRail {
					p, side = memmap.TheoremThreeDual(n, 2, 2)
				}
				mp := memmap.Generate(p, 1)
				nw := NewNetwork(side, ModulesAtLeaves, c.cfg)
				ref := newRefNetwork(side, ModulesAtLeaves, c.cfg)
				mn := quorum.NewMachine("network", n, model.CRCWPriority, quorum.NewStore(mp), nw)
				mr := quorum.NewMachine("reference", n, model.CRCWPriority, quorum.NewStore(mp), ref)
				if c.twoStage {
					mn.SetTwoStage(&quorum.TwoStageConfig{})
					mr.SetTwoStage(&quorum.TwoStageConfig{})
				}
				rng := rand.New(rand.NewSource(23))
				cells := 2 * n
				for s := 0; s < steps; s++ {
					batch := randomBatch(rng, n, cells)
					fn := stepFingerprint(mn.ExecuteStep(batch))
					fr := stepFingerprint(mr.ExecuteStep(batch))
					if fn != fr {
						t.Fatalf("step %d diverged:\n network   %s\n reference %s", s, fn, fr)
					}
				}
				for a := 0; a < cells; a++ {
					if vn, vr := mn.ReadCell(a), mr.ReadCell(a); vn != vr {
						t.Fatalf("cell %d: network=%d reference=%d", a, vn, vr)
					}
				}
				if nw.Stats() != ref.Stats() {
					t.Fatalf("network stats diverged:\n network   %+v\n reference %+v", nw.Stats(), ref.Stats())
				}
				checkDropReplies(t, ref)
				if nw.Stats().Collisions == 0 && c.cfg.Policy == DropOnCollision {
					t.Fatal("no collisions: the streams never exercise a retry")
				}
			})
		}
	}
}

// randomBatch draws one P-RAM step with mixed reads, writes and no-ops
// over a small hot address range (maximizing conflicts and retries).
func randomBatch(rng *rand.Rand, n, cells int) model.Batch {
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(cells)}
		case 1:
			batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: rng.Intn(cells), Value: model.Word(rng.Int63n(1 << 20))}
		default:
			batch[i] = model.Request{Proc: i, Op: model.OpNone}
		}
	}
	return batch
}

// stepFingerprint collapses a StepReport to its comparable fields (Values
// aliases a reusable buffer, so it is copied into the fingerprint string).
func stepFingerprint(rep model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d copies=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err, rep.Values)
}

// TestReferenceSingletonPhase pins the closed form a quiet packet is
// granted in: a lone packet's phase is pathLen+1 cycles and pathLen hops
// on both routers, for every placement and rail.
func TestReferenceSingletonPhase(t *testing.T) {
	const side = 8
	cases := []struct {
		name string
		pl   Placement
		cfg  Config
		att  quorum.Attempt
		want int64 // pathLen
	}{
		{"leaves", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 3, Module: 5, Var: 9}, 6 * 3},
		{"leaves-rowrail", ModulesAtLeaves, Config{DualRail: true}, quorum.Attempt{Proc: 3, Module: side + 5, Var: 9}, 6 * 3},
		{"roots", ModulesAtRoots, Config{}, quorum.Attempt{Proc: 3, Module: 5, Var: 9}, 4 * 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := newRefNetwork(side, c.pl, c.cfg)
			nw := NewNetwork(side, c.pl, c.cfg)
			gr, cr, _ := ref.RoutePhase([]quorum.Attempt{c.att})
			gn, cn, _ := nw.RoutePhase([]quorum.Attempt{c.att})
			if !gr[0] || !gn[0] {
				t.Fatalf("lone packet not granted: reference=%v network=%v", gr[0], gn[0])
			}
			if cr != c.want+1 || cn != c.want+1 {
				t.Fatalf("lone packet elapsed: reference=%d network=%d, want %d", cr, cn, c.want+1)
			}
			if ref.Stats().Hops != c.want || nw.Stats().Hops != c.want {
				t.Fatalf("lone packet hops: reference=%d network=%d, want %d",
					ref.Stats().Hops, nw.Stats().Hops, c.want)
			}
		})
	}
}
