// Differential tests for online pool resizing: a pool that shrinks or
// grows between rounds must stay bit-for-bit with a fixed-K reference pool
// running the same batches (idle lanes empty) — shard reports, committed
// memory and store timestamps all equal. Shard machines are interchangeable
// (results depend only on batch + store state, never on shard index), which
// is exactly what makes Resize a remap rather than a migration.
package quorum_test

import (
	"fmt"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// layoutBatch builds shard's deterministic step against a FIXED band
// layout (bands never changes across resizes — it is the serve layer's
// tenant-band count, not the pool's current K).
func layoutBatch(mem, nPer, shard, bands, round int) model.Batch {
	lo, hi := memmap.BandRange(shard, mem, bands)
	b := model.NewBatch(nPer)
	for i := 0; i < nPer; i++ {
		addr := lo + (i*7+round*3)%(hi-lo)
		switch (i + round) % 3 {
		case 0:
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr,
				Value: model.Word(1000*shard + 10*round + i)}
		case 1:
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
		default:
			b[i] = model.Request{Proc: i, Op: model.OpNone}
		}
	}
	return b
}

// resizePools builds the live (resizing) and reference (fixed-K) pools
// over independent stores drawn from the same banded map.
func resizePools(nPer, bands, liveK, refK int) (live, ref *quorum.Pool) {
	p := memmap.LemmaTwo(nPer*bands, 2, 1)
	mp := memmap.GenerateBanded(p, 11, bands)
	newCB := func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() }
	live = quorum.NewPool("live", quorum.NewStore(mp), newCB,
		quorum.PoolConfig{Engines: liveK, Procs: nPer, Mode: model.CRCWPriority})
	ref = quorum.NewPool("ref", quorum.NewStore(mp), newCB,
		quorum.PoolConfig{Engines: refK, Procs: nPer, Mode: model.CRCWPriority})
	return live, ref
}

// runResizeRound executes one round on both pools — the live pool carries
// the first live.Engines() lanes, the reference pads the rest with empty
// batches — and fails on any divergence in the shared lanes' reports.
func runResizeRound(t *testing.T, live, ref *quorum.Pool, bands, round int) {
	t.Helper()
	mem := live.Store().Map().Vars()
	nPer := live.ShardProcs()
	lk, rk := live.Engines(), ref.Engines()
	liveB := make([]model.Batch, lk)
	refB := make([]model.Batch, rk)
	for sh := 0; sh < lk; sh++ {
		liveB[sh] = layoutBatch(mem, nPer, sh, bands, round)
		refB[sh] = liveB[sh]
	}
	liveR := live.ExecuteSteps(liveB)
	refR := ref.ExecuteSteps(refB)
	for sh := 0; sh < lk; sh++ {
		fl, fr := stepFingerprint(liveR[sh]), stepFingerprint(refR[sh])
		if fl != fr {
			t.Fatalf("round %d shard %d diverged after resize:\n live %s\n ref  %s",
				round, sh, fl, fr)
		}
	}
}

// checkResizeStores asserts the two pools committed identical images.
func checkResizeStores(t *testing.T, live, ref *quorum.Pool) {
	t.Helper()
	if fl, fr := live.Store().Fingerprint(), ref.Store().Fingerprint(); fl != fr {
		t.Fatalf("store images diverged: live %x, ref %x", fl, fr)
	}
}

// TestPoolResizeShrinkGrowDifferential drives one pool through
// K=4 → 2 → 1 → 4 transitions mid-stream against a fixed K=4 reference:
// every surviving lane's report and the final store image are bit-for-bit.
func TestPoolResizeShrinkGrowDifferential(t *testing.T) {
	const nPer, bands = 16, 4
	live, ref := resizePools(nPer, bands, 4, 4)
	round := 0
	for _, k := range []int{4, 2, 1, 4} {
		live.Resize(k)
		if live.Engines() != k {
			t.Fatalf("Engines() = %d after Resize(%d)", live.Engines(), k)
		}
		for r := 0; r < 3; r++ {
			runResizeRound(t, live, ref, bands, round)
			round++
		}
	}
	checkResizeStores(t, live, ref)
}

// TestPoolResizeGrowBeyondStart grows a pool past its construction-time K
// (fresh machines are built from the stored constructor inputs) and checks
// the new lanes against a pool born at the larger K.
func TestPoolResizeGrowBeyondStart(t *testing.T) {
	const nPer, bands = 16, 4
	live, ref := resizePools(nPer, bands, 2, 4)
	// Warm both pools at the small width first.
	for r := 0; r < 2; r++ {
		runResizeRound(t, live, ref, bands, r)
	}
	live.Resize(4)
	for r := 2; r < 5; r++ {
		runResizeRound(t, live, ref, bands, r)
	}
	checkResizeStores(t, live, ref)
}

// TestPoolResizeCensus pins the transition bookkeeping: census getters
// never report above the new K, and degenerate calls behave (same-K no-op,
// k<1 panics).
func TestPoolResizeCensus(t *testing.T) {
	const nPer, bands = 8, 4
	live, _ := resizePools(nPer, bands, 4, 1)
	mem := live.Store().Map().Vars()
	batches := make([]model.Batch, 4)
	for sh := range batches {
		batches[sh] = layoutBatch(mem, nPer, sh, bands, 0)
	}
	live.ExecuteSteps(batches)
	if live.LastComponents() != 4 || live.LastActive() != 4 {
		t.Fatalf("pre-resize census: comp=%d active=%d, want 4/4",
			live.LastComponents(), live.LastActive())
	}
	live.Resize(2)
	if live.LastComponents() > 2 || live.LastActive() > 2 {
		t.Fatalf("post-resize census above new K: comp=%d active=%d",
			live.LastComponents(), live.LastActive())
	}
	live.Resize(2) // same-K: must be a no-op, not a rebuild
	if live.Engines() != 2 {
		t.Fatalf("Engines() = %d after same-K resize", live.Engines())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Resize(0) did not panic")
			}
		}()
		live.Resize(0)
	}()
}

// TestPoolResizeSinkLanes checks that shards created by a grow record
// their steps on their own lane.
func TestPoolResizeSinkLanes(t *testing.T) {
	const nPer, bands = 8, 4
	live, _ := resizePools(nPer, bands, 2, 1)
	sink := &laneSink{}
	live.SetStepSink(sink)
	live.Resize(4)
	mem := live.Store().Map().Vars()
	batches := make([]model.Batch, 4)
	for sh := range batches {
		batches[sh] = layoutBatch(mem, nPer, sh, bands, 1)
	}
	live.ExecuteSteps(batches)
	if got := fmt.Sprint(sink.lanes); got != "map[0:1 1:1 2:1 3:1]" {
		t.Fatalf("sink lanes after grow = %s, want one step on each of 0..3", got)
	}
}

// laneSink counts RecordStep calls per lane.
type laneSink struct {
	lanes map[int]int
}

func (s *laneSink) RecordStep(lane int, _ quorum.DedupStep, _ model.StepReport) {
	if s.lanes == nil {
		s.lanes = map[int]int{}
	}
	s.lanes[lane]++
}

func (s *laneSink) RecordLoad(lane, base int, vals []model.Word) {}
func (s *laneSink) StepBarrier()                                 {}
