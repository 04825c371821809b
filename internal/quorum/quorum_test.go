package quorum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memmap"
	"repro/internal/model"
)

func testSetup(t testing.TB, n int) (*Store, *Engine) {
	t.Helper()
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 11)
	st := NewStore(mp)
	eng := NewEngine(st, NewCompleteBipartite(), n)
	return st, eng
}

func TestWriteThenReadSingle(t *testing.T) {
	st, eng := testSetup(t, 64)
	w := eng.ExecuteBatch([]Request{{Proc: 0, Var: 5, Write: true, Value: 77}})
	if !w.Satisfied[0] || w.Stalled {
		t.Fatalf("write not satisfied: %+v", w)
	}
	r := eng.ExecuteBatch([]Request{{Proc: 3, Var: 5}})
	if !r.Satisfied[0] {
		t.Fatal("read not satisfied")
	}
	if r.Values[0] != 77 {
		t.Errorf("read = %d, want 77", r.Values[0])
	}
	if st.CommittedValue(5) != 77 {
		t.Errorf("committed = %d, want 77", st.CommittedValue(5))
	}
}

func TestWriteUpdatesAtLeastCCopies(t *testing.T) {
	st, eng := testSetup(t, 64)
	c := st.Map().P.C
	for _, v := range []int{0, 9, 100, 999} {
		eng.ExecuteBatch([]Request{{Proc: 1, Var: v, Write: true, Value: model.Word(v)}})
		if fresh := st.FreshCopies(v); fresh < c {
			t.Errorf("var %d: only %d fresh copies, need >= c = %d", v, fresh, c)
		}
	}
}

func TestReadSeesLatestOfTwoWrites(t *testing.T) {
	st, eng := testSetup(t, 64)
	eng.ExecuteBatch([]Request{{Proc: 0, Var: 7, Write: true, Value: 1}})
	eng.ExecuteBatch([]Request{{Proc: 9, Var: 7, Write: true, Value: 2}})
	r := eng.ExecuteBatch([]Request{{Proc: 4, Var: 7}})
	if r.Values[0] != 2 {
		t.Errorf("read = %d, want 2 (latest write)", r.Values[0])
	}
	if st.CommittedValue(7) != 2 {
		t.Errorf("committed = %d, want 2", st.CommittedValue(7))
	}
}

func TestFullPermutationBatch(t *testing.T) {
	const n = 256
	_, eng := testSetup(t, n)
	// Every processor writes its own variable, then reads its neighbor's.
	writes := make([]Request, n)
	for i := range writes {
		writes[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(i * 3)}
	}
	wres := eng.ExecuteBatch(writes)
	for i, ok := range wres.Satisfied {
		if !ok {
			t.Fatalf("write %d unsatisfied", i)
		}
	}
	reads := make([]Request, n)
	for i := range reads {
		reads[i] = Request{Proc: i, Var: (i + 1) % n}
	}
	rres := eng.ExecuteBatch(reads)
	for i := range reads {
		want := model.Word(((i + 1) % n) * 3)
		if rres.Values[i] != want {
			t.Errorf("proc %d read %d, want %d", i, rres.Values[i], want)
		}
	}
	if rres.Stalled || wres.Stalled {
		t.Error("batch stalled on a healthy map")
	}
	t.Logf("n=%d: write phases=%d read phases=%d", n, wres.Phases, rres.Phases)
}

func TestLivePerPhaseDecays(t *testing.T) {
	const n = 512
	_, eng := testSetup(t, n)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	res := eng.ExecuteBatch(reqs)
	if res.Stalled {
		t.Fatal("stalled")
	}
	// The live count must be non-increasing and reach zero.
	prev := n
	for _, l := range res.LivePerPhase {
		if l > prev {
			t.Fatalf("live count increased: %v", res.LivePerPhase)
		}
		prev = l
	}
	if res.LivePerPhase[len(res.LivePerPhase)-1] != 0 {
		t.Errorf("batch ended with live requests: %v", res.LivePerPhase)
	}
}

func TestQuorumIntersectionProperty(t *testing.T) {
	// Any write quorum (c of 2c−1) intersects any read quorum: after the
	// engine writes, reads through the engine must return the new value no
	// matter which copies the protocol happens to touch. Randomized batches
	// of interleaved writes/reads against a reference map.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, vars = 32, 64
		p := memmap.LemmaTwo(n, 2, 1)
		mp := memmap.Generate(p, seed)
		st := NewStore(mp)
		eng := NewEngine(st, NewCompleteBipartite(), n)
		ref := make(map[int]model.Word)
		for round := 0; round < 8; round++ {
			// Random write batch over distinct vars.
			nw := 1 + rng.Intn(8)
			seen := map[int]bool{}
			var ws []Request
			for i := 0; i < nw; i++ {
				v := rng.Intn(vars)
				if seen[v] {
					continue
				}
				seen[v] = true
				val := model.Word(rng.Intn(1000))
				ws = append(ws, Request{Proc: rng.Intn(n), Var: v, Write: true, Value: val})
				ref[v] = val
			}
			wres := eng.ExecuteBatch(ws)
			for _, ok := range wres.Satisfied {
				if !ok {
					return false
				}
			}
			// Read back a random subset of everything written so far.
			var rs []Request
			var want []model.Word
			for v, val := range ref {
				if rng.Intn(2) == 0 {
					rs = append(rs, Request{Proc: rng.Intn(n), Var: v})
					want = append(want, val)
				}
			}
			rres := eng.ExecuteBatch(rs)
			for i := range rs {
				if !rres.Satisfied[i] || rres.Values[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCorruptMapStallsOrSlows(t *testing.T) {
	// With all copies confined to r modules, a full batch must take far
	// more phases than on a healthy map (bandwidth r per phase at best).
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	healthyMap := memmap.Generate(p, 5)
	corruptMap := memmap.GenerateCorrupt(p, p.R(), 5)
	mkReqs := func() []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Proc: i, Var: i, Write: true, Value: 1}
		}
		return reqs
	}
	healthy := NewEngine(NewStore(healthyMap), NewCompleteBipartite(), n)
	corrupt := NewEngine(NewStore(corruptMap), NewCompleteBipartite(), n)
	hres := healthy.ExecuteBatch(mkReqs())
	cres := corrupt.ExecuteBatch(mkReqs())
	if hres.Stalled {
		t.Fatal("healthy map stalled")
	}
	if !cres.Stalled && cres.Phases < 4*hres.Phases {
		t.Errorf("corrupt map phases=%d not clearly worse than healthy=%d",
			cres.Phases, hres.Phases)
	}
	t.Logf("healthy=%d phases, corrupt=%d phases (stalled=%v)",
		hres.Phases, cres.Phases, cres.Stalled)
}

func TestStallCapRespected(t *testing.T) {
	const n = 64
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.GenerateCorrupt(p, p.R(), 1)
	eng := NewEngine(NewStore(mp), NewCompleteBipartite(), n)
	eng.MaxPhases = 3
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	res := eng.ExecuteBatch(reqs)
	if !res.Stalled {
		t.Error("expected stall under tiny phase cap")
	}
	if res.Phases != 3 {
		t.Errorf("phases = %d, want exactly the cap 3", res.Phases)
	}
}

func TestEmptyBatch(t *testing.T) {
	_, eng := testSetup(t, 16)
	res := eng.ExecuteBatch(nil)
	if res.Phases != 0 || res.Time != 0 || res.Stalled {
		t.Errorf("empty batch cost something: %+v", res)
	}
}

func TestBipartiteBandwidthArbitration(t *testing.T) {
	cb := NewCompleteBipartite()
	attempts := []Attempt{
		{Proc: 0, Module: 2},
		{Proc: 2, Module: 1},
		{Proc: 5, Module: 1},
		{Proc: 9, Module: 1},
	}
	granted, cost, load := cb.RoutePhase(attempts)
	if cost != 1 {
		t.Errorf("phase cost = %d, want 1", cost)
	}
	if load != 3 {
		t.Errorf("max load = %d, want 3", load)
	}
	want := []bool{true, true, false, false} // lowest proc per module
	for i := range want {
		if granted[i] != want[i] {
			t.Errorf("granted[%d] = %v, want %v", i, granted[i], want[i])
		}
	}
}

func TestBipartiteHigherBandwidth(t *testing.T) {
	cb := &CompleteBipartite{Bandwidth: 2, PhaseCost: 4}
	attempts := []Attempt{
		{Proc: 2, Module: 1}, {Proc: 5, Module: 1}, {Proc: 9, Module: 1},
	}
	granted, cost, _ := cb.RoutePhase(attempts)
	if cost != 4 {
		t.Errorf("cost = %d, want 4", cost)
	}
	n := 0
	for _, g := range granted {
		if g {
			n++
		}
	}
	if n != 2 {
		t.Errorf("granted %d, want 2", n)
	}
	if !granted[0] || !granted[1] {
		t.Error("should grant procs 2 and 5")
	}
}

func TestStoreLoadCellAndClock(t *testing.T) {
	p := memmap.LemmaTwo(16, 2, 1)
	st := NewStore(memmap.Generate(p, 1))
	st.LoadCell(3, 42)
	if st.CommittedValue(3) != 42 {
		t.Error("LoadCell not visible")
	}
	if st.FreshCopies(3) != st.Map().R() {
		t.Error("LoadCell must refresh all copies")
	}
}
