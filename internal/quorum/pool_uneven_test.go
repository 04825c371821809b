// Differential coverage for UNEVEN shard sizes: the serving front end
// multiplexes tenants with different simulated P-RAM sizes onto one pool,
// so a round's batches can name different processor-id prefixes per lane —
// including empty (idle) lanes. The equal-sized-shard matrix in
// pool_differential_test.go never exercises that shape; these tests pin it
// to the same serial shard-order reference, with the same bit-for-bit
// contract, across traffic mixes.
package quorum_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// unevenBatch draws one shard's step over only the first `active`
// processors (the uneven-tenant shape: active varies per shard), mixing
// band-local and cross-band traffic like shardBatch.
func unevenBatch(rng *rand.Rand, h *poolHarness, shard, active int, crossProb float64) model.Batch {
	k := h.pool.Engines()
	lo, hi := memmap.BandRange(shard, h.mem, k)
	b := model.NewBatch(active)
	for i := 0; i < active; i++ {
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

// TestDifferentialPoolUnevenShards drives lanes of widths n, n/2, n/4, …
// and one permanently idle lane through the pool and its serial reference.
func TestDifferentialPoolUnevenShards(t *testing.T) {
	const K, nPer = 4, 16
	newCB := func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() }
	// Lane widths 16, 8, 4, 0: lane 3 is an always-empty (idle) shard.
	widths := [K]int{nPer, nPer / 2, nPer / 4, 0}
	for _, cross := range []float64{0, 0.3} {
		t.Run(fmt.Sprintf("cross=%.1f", cross), func(t *testing.T) {
			p := memmap.LemmaTwo(nPer*K, 2, 1)
			for seed := int64(1); seed <= 3; seed++ {
				mp := memmap.GenerateBanded(p, seed*13, K)
				h := newPoolHarness(mp, K, nPer, model.CRCWPriority, newCB, nil)
				rng := rand.New(rand.NewSource(seed * 577))
				batches := make([]model.Batch, K)
				for s := 0; s < 6; s++ {
					for sh := range batches {
						batches[sh] = unevenBatch(rng, h, sh, widths[sh], cross)
					}
					shardReps := h.pool.ExecuteSteps(batches)
					for sh := 0; sh < K; sh++ {
						h.refR[sh] = h.ref[sh].ExecuteStep(batches[sh])
					}
					for sh := 0; sh < K; sh++ {
						if fp, fr := stepFingerprint(shardReps[sh]), stepFingerprint(h.refR[sh]); fp != fr {
							t.Fatalf("step %d shard %d diverged:\n pool %s\n ref  %s", s, sh, fp, fr)
						}
					}
					if got := h.pool.LastActive(); got > 3 {
						t.Fatalf("step %d: LastActive=%d with a permanently idle lane", s, got)
					}
				}
				if hp, hr := h.pool.Store().Fingerprint(), h.ref[0].Store().Fingerprint(); hp != hr {
					t.Fatalf("store images diverged: pool %x, ref %x", hp, hr)
				}
			}
		})
	}
}

// TestPoolLastActiveCensus pins the occupancy hook: LastActive counts
// exactly the lanes that carried non-idle requests, and idle lanes stay
// singleton components (no forced merges from idleness).
func TestPoolLastActiveCensus(t *testing.T) {
	const K, nPer = 4, 8
	p := memmap.LemmaTwo(nPer*K, 2, 1)
	mp := memmap.GenerateBanded(p, 3, K)
	pool := quorum.NewPool("census", quorum.NewStore(mp),
		func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() },
		quorum.PoolConfig{Engines: K, Procs: nPer, Mode: model.CRCWPriority})
	batches := make([]model.Batch, K)
	for active := 0; active <= K; active++ {
		for sh := 0; sh < K; sh++ {
			if sh < active {
				lo, _ := memmap.BandRange(sh, p.Mem, K)
				b := model.NewBatch(nPer)
				b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: lo}
				batches[sh] = b
			} else {
				batches[sh] = nil // idle lane
			}
		}
		pool.ExecuteSteps(batches)
		if got := pool.LastActive(); got != active {
			t.Errorf("LastActive = %d, want %d", got, active)
		}
		if got := pool.LastComponents(); got != K {
			t.Errorf("active=%d: LastComponents = %d, want %d (disjoint bands + idle singletons)", active, got, K)
		}
	}
}
