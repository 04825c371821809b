package quorum

import (
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// bandedPoolSetup builds a K-engine pool over a banded map: shard k's
// variable band maps only into shard k's module band, so shards touching
// their own bands form K disjoint components by construction.
func bandedPoolSetup(t testing.TB, nPerShard, k int) *Pool {
	t.Helper()
	p := memmap.LemmaTwo(nPerShard*k, 2, 1)
	mp := memmap.GenerateBanded(p, 11, k)
	return NewPool("pool-test", NewStore(mp),
		func(int) Interconnect { return NewCompleteBipartite() },
		PoolConfig{Engines: k, Procs: nPerShard, Mode: model.CRCWPriority})
}

// bandBatch builds a step in which every processor of shard k reads or
// writes inside shard k's own variable band.
func bandBatch(pl *Pool, shard, round int) model.Batch {
	mem := pl.Store().Map().Vars()
	lo, hi := memmap.BandRange(shard, mem, pl.Engines())
	n := pl.ShardProcs()
	b := model.NewBatch(n)
	for i := 0; i < n; i++ {
		addr := lo + (i*7+round)%(hi-lo)
		if (i+round)%2 == 0 {
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(100*shard + i + round)}
		} else {
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
		}
	}
	return b
}

// TestPoolDisjointBandsFullParallelism: band-local traffic on a banded map
// forms exactly K components, and committed memory matches the per-shard
// writes.
func TestPoolDisjointBandsFullParallelism(t *testing.T) {
	const nPer, K = 32, 4
	pl := bandedPoolSetup(t, nPer, K)
	batches := make([]model.Batch, K)
	for round := 0; round < 3; round++ {
		for k := range batches {
			batches[k] = bandBatch(pl, k, round)
		}
		shards := pl.ExecuteSteps(batches)
		if pl.LastComponents() != K {
			t.Fatalf("round %d: %d components, want %d (disjoint bands)", round, pl.LastComponents(), K)
		}
		if len(shards) != K {
			t.Fatalf("got %d shard reports, want %d", len(shards), K)
		}
		for k := range shards {
			if shards[k].Err != nil {
				t.Fatalf("round %d shard %d: %v", round, k, shards[k].Err)
			}
		}
		// Writes of this round are visible in committed memory.
		for k := range batches {
			for _, rq := range batches[k] {
				if rq.Op == model.OpWrite {
					if got := pl.Store().CommittedValue(rq.Addr); got != rq.Value {
						t.Fatalf("round %d shard %d: committed[%d] = %d, want %d",
							round, k, rq.Addr, got, rq.Value)
					}
				}
			}
		}
	}
}

// TestPoolContentionMergesComponents: shards that touch a common variable
// share that variable's modules and must be merged into one component.
func TestPoolContentionMergesComponents(t *testing.T) {
	const nPer, K = 8, 4
	pl := bandedPoolSetup(t, nPer, K)
	batches := make([]model.Batch, K)
	for k := range batches {
		b := model.NewBatch(nPer)
		b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: 0} // same var everywhere
		batches[k] = b
	}
	pl.ExecuteSteps(batches)
	if pl.LastComponents() != 1 {
		t.Fatalf("%d components, want 1 (all shards share variable 0)", pl.LastComponents())
	}
}

// TestPoolComponentsCountOnlyMerges: LastComponents is K minus the unions
// that joined two separate components. Each shard reads the first variable
// of its own band plus the bands listed for it; a link that closes a cycle
// joins shards already merged and must not lower the count again.
func TestPoolComponentsCountOnlyMerges(t *testing.T) {
	const nPer, K = 8, 4
	for _, c := range []struct {
		name  string
		reads [K][]int // extra bands shard k reads from
		want  int
	}{
		{"pair", [K][]int{1: {0}}, 3},
		{"two pairs", [K][]int{1: {0}, 3: {2}}, 2},
		{"cycle", [K][]int{0: {2}, 1: {0}, 2: {1}}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			pl := bandedPoolSetup(t, nPer, K)
			mem := pl.Store().Map().Vars()
			bandVar := func(band int) int {
				lo, _ := memmap.BandRange(band, mem, K)
				return lo
			}
			batches := make([]model.Batch, K)
			for k := range batches {
				b := model.NewBatch(nPer)
				b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: bandVar(k)}
				for i, band := range c.reads[k] {
					b[i+1] = model.Request{Proc: i + 1, Op: model.OpRead, Addr: bandVar(band)}
				}
				batches[k] = b
			}
			for _, rep := range pl.ExecuteSteps(batches) {
				if rep.Err != nil {
					t.Fatal(rep.Err)
				}
			}
			if got := pl.LastComponents(); got != c.want {
				t.Errorf("%d components, want %d", got, c.want)
			}
			if got := pl.LastActive(); got != K {
				t.Errorf("LastActive = %d, want %d", got, K)
			}
		})
	}
}

// TestPoolShardReports: ExecuteSteps returns one report per shard, in
// shard order, each holding that shard's own read values (one per
// processor) and its own costs.
func TestPoolShardReports(t *testing.T) {
	const nPer, K = 16, 2
	pl := bandedPoolSetup(t, nPer, K)
	// Shard writes, then shard reads of one written cell per shard.
	writes := make([]model.Batch, K)
	for k := range writes {
		writes[k] = bandBatch(pl, k, 0)
	}
	pl.ExecuteSteps(writes)
	reads := make([]model.Batch, K)
	for k := range reads {
		b := model.NewBatch(nPer)
		for i := 0; i < nPer; i++ {
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: writes[k][0].Addr}
		}
		reads[k] = b
	}
	shards := pl.ExecuteSteps(reads)
	if len(shards) != K {
		t.Fatalf("got %d shard reports, want %d", len(shards), K)
	}
	for k := range shards {
		if shards[k].Err != nil {
			t.Fatalf("shard %d: %v", k, shards[k].Err)
		}
		if len(shards[k].Values) != nPer {
			t.Fatalf("shard %d Values len %d, want %d", k, len(shards[k].Values), nPer)
		}
		want := writes[k][0].Value
		for i, v := range shards[k].Values {
			if v != want {
				t.Fatalf("shard %d Values[%d] = %d, want %d", k, i, v, want)
			}
		}
		if shards[k].CopyAccesses == 0 || shards[k].Time == 0 {
			t.Errorf("shard %d report carries no costs: %+v", k, shards[k])
		}
	}
}

// TestPoolBatchCountMismatch: feeding the wrong number of shard batches is
// a programming error and must not be silently truncated.
func TestPoolBatchCountMismatch(t *testing.T) {
	pl := bandedPoolSetup(t, 8, 2)
	defer func() {
		if recover() == nil {
			t.Error("ExecuteSteps accepted a mismatched batch count")
		}
	}()
	pl.ExecuteSteps(make([]model.Batch, 3))
}
