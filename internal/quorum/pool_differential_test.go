// Differential test harness for the multi-engine pool: a pool round is
// only correct if it is BIT-FOR-BIT the serial single-engine reference —
// same per-shard StepReports, same replicated memory image (values AND timestamps) — across interconnects, policies, rails,
// schedules, seeds and engine counts. The reference is the plain loop
// the pool wraps: the same K machines' steps executed one after another
// in ascending shard order on a second store drawn from the same map. (External package so the MOT-backed cases can import
// repro/internal/mot, which itself imports quorum.)
package quorum_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// poolHarness couples a pool to its serial reference over one memory map.
type poolHarness struct {
	pool *quorum.Pool
	ref  []*quorum.Machine
	refR []model.StepReport
	mem  int
}

// newPoolHarness builds the pool and reference sides with independent
// stores over the same map and independent interconnect instances.
func newPoolHarness(mp *memmap.Map, k, nPer int, mode model.Mode,
	newNet func(shard int) quorum.Interconnect, twoStage *quorum.TwoStageConfig) *poolHarness {
	h := &poolHarness{
		pool: quorum.NewPool("pool", quorum.NewStore(mp), newNet,
			quorum.PoolConfig{Engines: k, Procs: nPer, Mode: mode, TwoStage: twoStage}),
		ref:  make([]*quorum.Machine, k),
		refR: make([]model.StepReport, k),
		mem:  mp.Vars(),
	}
	refStore := quorum.NewStore(mp)
	for i := range h.ref {
		m := quorum.NewMachine(fmt.Sprintf("ref[%d]", i), nPer, mode, refStore, newNet(i))
		if twoStage != nil {
			ts := *twoStage
			m.SetTwoStage(&ts)
		}
		h.ref[i] = m
	}
	return h
}

// stepFingerprint collapses a StepReport to its comparable fields (Values
// aliases a reusable buffer, so it is rendered into the string).
func stepFingerprint(rep model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d copies=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err, rep.Values)
}

// shardBatch draws one shard's step: mostly band-local traffic with a
// crossProb chance per request of addressing the full variable space,
// which forces component merges.
func shardBatch(rng *rand.Rand, h *poolHarness, shard int, crossProb float64) model.Batch {
	k := h.pool.Engines()
	nPer := h.pool.ShardProcs()
	lo, hi := memmap.BandRange(shard, h.mem, k)
	b := model.NewBatch(nPer)
	for i := 0; i < nPer; i++ {
		addr := lo + rng.Intn(hi-lo)
		if rng.Float64() < crossProb {
			addr = rng.Intn(h.mem)
		}
		switch rng.Intn(3) {
		case 0:
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
		case 1:
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(rng.Int63n(1 << 20))}
		default:
			b[i] = model.Request{Proc: i, Op: model.OpNone}
		}
	}
	return b
}

// runDifferentialSteps drives both sides through the same step stream and
// fails on the first divergence; afterwards the stores must carry
// identical images down to the timestamps.
func runDifferentialSteps(t *testing.T, h *poolHarness, seed int64, steps int, crossProb float64) {
	t.Helper()
	k := h.pool.Engines()
	rng := rand.New(rand.NewSource(seed))
	batches := make([]model.Batch, k)
	for s := 0; s < steps; s++ {
		for sh := range batches {
			batches[sh] = shardBatch(rng, h, sh, crossProb)
		}
		shardReps := h.pool.ExecuteSteps(batches)
		for sh := 0; sh < k; sh++ {
			h.refR[sh] = h.ref[sh].ExecuteStep(batches[sh])
		}
		for sh := 0; sh < k; sh++ {
			fp, fr := stepFingerprint(shardReps[sh]), stepFingerprint(h.refR[sh])
			if fp != fr {
				t.Fatalf("step %d shard %d diverged:\n pool %s\n ref  %s", s, sh, fp, fr)
			}
		}
	}
	if hp, hr := h.pool.Store().Fingerprint(), h.ref[0].Store().Fingerprint(); hp != hr {
		t.Fatalf("store images diverged after %d steps: pool %x, ref %x", steps, hp, hr)
	}
	for v := 0; v < h.mem; v += 1 + h.mem/64 {
		if vp, vr := h.pool.Store().CommittedValue(v), h.ref[0].Store().CommittedValue(v); vp != vr {
			t.Fatalf("committed[%d]: pool %d, ref %d", v, vp, vr)
		}
	}
}

// TestDifferentialPoolBipartite sweeps the DMMPC-style pool over engine
// counts, band layouts and traffic mixes, asserting bit-for-bit equality
// with the serial reference.
func TestDifferentialPoolBipartite(t *testing.T) {
	newCB := func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() }
	for _, K := range []int{1, 2, 4, 8} {
		for _, banded := range []bool{true, false} {
			for _, cross := range []float64{0, 0.3} {
				name := fmt.Sprintf("K=%d/banded=%v/cross=%.1f", K, banded, cross)
				t.Run(name, func(t *testing.T) {
					const nPer = 16
					p := memmap.LemmaTwo(nPer*K, 2, 1)
					for seed := int64(1); seed <= 3; seed++ {
						var mp *memmap.Map
						if banded {
							mp = memmap.GenerateBanded(p, seed*31, K)
						} else {
							mp = memmap.Generate(p, seed*31)
						}
						h := newPoolHarness(mp, K, nPer, model.CRCWPriority, newCB, nil)
						runDifferentialSteps(t, h, seed*977, 5, cross)
					}
				})
			}
		}
	}
}

// TestDifferentialPoolMOT runs the pool with 2DMOT packet networks as the
// shard interconnects — cycle-accurate routing, both policies, dual rail
// and the two-stage schedule — against the serial reference. Each shard
// machine owns its own network; the shared object under test is the
// sharded store.
func TestDifferentialPoolMOT(t *testing.T) {
	type tc struct {
		name     string
		dualRail bool
		policy   mot.Policy
		twoStage *quorum.TwoStageConfig
	}
	cases := []tc{
		{"plain", false, mot.DropOnCollision, nil},
		{"queue", false, mot.QueueOnCollision, nil},
		{"dualrail", true, mot.DropOnCollision, nil},
		{"twostage", false, mot.DropOnCollision, &quorum.TwoStageConfig{}},
		{"dualrail-twostage", true, mot.DropOnCollision, &quorum.TwoStageConfig{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, K := range []int{1, 2, 4} {
				const nPer = 16
				nTotal := nPer * K
				var p memmap.Params
				var side int
				if c.dualRail {
					p, side = memmap.TheoremThreeDual(nTotal, 2, 2)
				} else {
					p, side = memmap.TheoremThree(nTotal, 2, 2)
				}
				mp := memmap.GenerateBanded(p, 13, K)
				newNet := func(int) quorum.Interconnect {
					return mot.NewNetwork(side, mot.ModulesAtLeaves,
						mot.Config{Policy: c.policy, DualRail: c.dualRail})
				}
				h := newPoolHarness(mp, K, nPer, model.CRCWPriority, newNet, c.twoStage)
				runDifferentialSteps(t, h, 23+int64(K), 4, 0.2)
			}
		})
	}
}

// TestPoolExecuteStepsZeroAllocs locks the pool's steady-state
// zero-allocation invariant: the census and the K shard steps run out of
// reused arenas.
func TestPoolExecuteStepsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const K, nPer = 4, 32
	p := memmap.LemmaTwo(nPer*K, 2, 1)
	mp := memmap.GenerateBanded(p, 11, K)
	pl := quorum.NewPool("alloc", quorum.NewStore(mp),
		func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() },
		quorum.PoolConfig{Engines: K, Procs: nPer, Mode: model.CRCWPriority})
	batches := make([]model.Batch, K)
	mem := mp.Vars()
	for k := range batches {
		lo, hi := memmap.BandRange(k, mem, K)
		b := model.NewBatch(nPer)
		for i := 0; i < nPer; i++ {
			addr := lo + (i*13)%(hi-lo)
			if i%2 == 0 {
				b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(i)}
			} else {
				b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
			}
		}
		batches[k] = b
	}
	run := func() {
		for _, rep := range pl.ExecuteSteps(batches) {
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
		}
	}
	for i := 0; i < 5; i++ { // grow arenas
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("ExecuteSteps allocates %.1f/op in steady state, want 0", avg)
	}
}
