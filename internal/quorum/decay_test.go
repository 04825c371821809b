package quorum

import (
	"testing"

	"repro/internal/memmap"
)

// TestLivePerPhaseGeometricDecay verifies the mechanism behind O(log n)
// phases: the expansion property makes the live-request count fall by a
// constant factor per pass over the cluster queues — the invariant the
// Lemma 2 → Theorem 2 argument rests on.
func TestLivePerPhaseGeometricDecay(t *testing.T) {
	const n = 1024
	p := memmap.LemmaTwo(n, 2, 1)
	eng := NewEngine(NewStore(memmap.Generate(p, 21)), NewCompleteBipartite(), n)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Proc: i, Var: (i * 131) % p.Mem, Write: true, Value: 1}
	}
	res := eng.ExecuteBatch(reqs)
	if res.Stalled {
		t.Fatal("stalled")
	}
	live := res.LivePerPhase
	// Sample the live counts once per cluster pass (every r phases): each pass
	// must clear at least half the remaining live requests on a healthy
	// fine-grain map.
	r := p.R()
	prev := n
	for i := r - 1; i < len(live); i += r {
		cur := live[i]
		if cur > (prev+1)/2 {
			t.Fatalf("pass ending at phase %d: live %d -> %d, decay slower than 1/2 (live %v)",
				i+1, prev, cur, live)
		}
		prev = cur
	}
	if live[len(live)-1] != 0 {
		t.Error("batch did not drain")
	}
	t.Logf("n=%d drained in %d phases, live=%v", n, res.Phases, live)
}

// TestDecayDegradesOnCoarseGrain shows the contrast the paper draws: the
// same protocol on an MPC-granularity map (M = n) drains more slowly per
// copy because module contention throttles each phase.
func TestDecayDegradesOnCoarseGrain(t *testing.T) {
	const n = 512
	fine := memmap.LemmaTwo(n, 2, 1)
	coarse := memmap.LemmaOne(n, 2)
	mkReqs := func(m int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Proc: i, Var: (i * 131) % m, Write: true, Value: 1}
		}
		return reqs
	}
	fe := NewEngine(NewStore(memmap.Generate(fine, 3)), NewCompleteBipartite(), n)
	ce := NewEngine(NewStore(memmap.Generate(coarse, 3)), NewCompleteBipartite(), n)
	fres := fe.ExecuteBatch(mkReqs(fine.Mem))
	cres := ce.ExecuteBatch(mkReqs(coarse.Mem))
	// Normalize per copy: phases / r. Fine grain should be at least as
	// good per copy and strictly cheaper in total despite equal n.
	finePerCopy := float64(fres.Phases) / float64(fine.R())
	coarsePerCopy := float64(cres.Phases) / float64(coarse.R())
	if finePerCopy > coarsePerCopy*1.5 {
		t.Errorf("fine-grain per-copy phases %.2f worse than coarse %.2f",
			finePerCopy, coarsePerCopy)
	}
	t.Logf("fine: %d phases (r=%d), coarse: %d phases (r=%d)",
		fres.Phases, fine.R(), cres.Phases, coarse.R())
}
