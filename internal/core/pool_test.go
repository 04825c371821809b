package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// bandStep builds one step per shard: every processor of shard k writes or
// reads inside shard k's own variable band.
func poolBandSteps(dp *quorum.Pool, round int) []model.Batch {
	k := dp.Engines()
	n := dp.ShardProcs()
	mem := dp.Store().Map().Vars()
	batches := make([]model.Batch, k)
	for sh := 0; sh < k; sh++ {
		lo, hi := memmap.BandRange(sh, mem, k)
		b := model.NewBatch(n)
		for i := 0; i < n; i++ {
			addr := lo + (i*11+round)%(hi-lo)
			if (i+round)%3 == 0 {
				b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
			} else {
				b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(1000*sh + 10*i + round)}
			}
		}
		batches[sh] = b
	}
	return batches
}

// buildPool builds a spec that must yield a pool.
func buildPool(t *testing.T, s core.Spec) *quorum.Pool {
	t.Helper()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Pool == nil {
		t.Fatalf("%v built a single machine, want a pool", b.Spec)
	}
	return b.Pool
}

// TestDMMPCPoolServesDisjointPrograms: the banded deployment runs K
// band-local programs as K disjoint components every step and commits
// their writes.
func TestDMMPCPoolServesDisjointPrograms(t *testing.T) {
	const n = 32
	dp := buildPool(t, core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: n})
	if dp.Engines() != 4 {
		t.Fatalf("pool has %d engines, want 4", dp.Engines())
	}
	for round := 0; round < 3; round++ {
		batches := poolBandSteps(dp, round)
		shards := dp.ExecuteSteps(batches)
		if dp.LastComponents() != dp.Engines() {
			t.Fatalf("round %d: %d components, want %d (banded map, band-local programs)",
				round, dp.LastComponents(), dp.Engines())
		}
		for sh := range shards {
			if shards[sh].Err != nil {
				t.Fatalf("round %d shard %d: %v", round, sh, shards[sh].Err)
			}
			if shards[sh].Phases == 0 {
				t.Errorf("round %d shard %d: no phases recorded", round, sh)
			}
		}
		for sh, b := range batches {
			for _, rq := range b {
				if rq.Op == model.OpWrite {
					if got := dp.Store().CommittedValue(rq.Addr); got != rq.Value {
						t.Fatalf("round %d shard %d: committed[%d] = %d, want %d",
							round, sh, rq.Addr, got, rq.Value)
					}
				}
			}
		}
	}
}

// TestDMMPCPoolTwoStage: the two-stage schedule flows through to every
// shard machine.
func TestDMMPCPoolTwoStage(t *testing.T) {
	const n = 32
	dp := buildPool(t, core.Spec{Kind: core.KindDMMPC, Lanes: 2, Procs: n, TwoStage: true})
	batches := poolBandSteps(dp, 0)
	for sh, rep := range dp.ExecuteSteps(batches) {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Phases == 0 {
			t.Errorf("two-stage pool step recorded no phases on shard %d", sh)
		}
	}
}
