package quorum

import (
	"math/rand"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// TestPartialClusterSizes: n not divisible by 2c−1 leaves a short last
// cluster; the protocol must still drain everything.
func TestPartialClusterSizes(t *testing.T) {
	for _, n := range []int{5, 13, 65, 129, 255} {
		p := memmap.LemmaTwo(256, 2, 1) // map sized for 256; n may be smaller
		st := NewStore(memmap.Generate(p, 3))
		eng := NewEngine(st, NewCompleteBipartite(), n)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(i)}
		}
		res := eng.ExecuteBatch(reqs)
		if res.Stalled {
			t.Errorf("n=%d: stalled", n)
			continue
		}
		for i, ok := range res.Satisfied {
			if !ok {
				t.Fatalf("n=%d: request %d unsatisfied", n, i)
			}
		}
		for i := range reqs {
			if got := st.CommittedValue(i); got != model.Word(i) {
				t.Errorf("n=%d: var %d = %d", n, i, got)
			}
		}
	}
}

// TestReadNeverWrittenVariable: all copies at timestamp 0 value 0.
func TestReadNeverWrittenVariable(t *testing.T) {
	p := memmap.LemmaTwo(64, 2, 1)
	eng := NewEngine(NewStore(memmap.Generate(p, 3)), NewCompleteBipartite(), 64)
	res := eng.ExecuteBatch([]Request{{Proc: 5, Var: 999}})
	if !res.Satisfied[0] || res.Values[0] != 0 {
		t.Errorf("virgin read: satisfied=%v value=%d", res.Satisfied[0], res.Values[0])
	}
}

// TestDuplicateVariableRequestsInOneBatch: two requests for the same var
// (as can happen if a caller skips deduplication) must both complete and
// agree.
func TestDuplicateVariableRequestsInOneBatch(t *testing.T) {
	p := memmap.LemmaTwo(64, 2, 1)
	st := NewStore(memmap.Generate(p, 3))
	eng := NewEngine(st, NewCompleteBipartite(), 64)
	st.LoadCell(7, 42)
	res := eng.ExecuteBatch([]Request{
		{Proc: 0, Var: 7},
		{Proc: 40, Var: 7},
	})
	if !res.Satisfied[0] || !res.Satisfied[1] {
		t.Fatal("duplicate reads unsatisfied")
	}
	if res.Values[0] != 42 || res.Values[1] != 42 {
		t.Errorf("duplicate reads disagree: %d vs %d", res.Values[0], res.Values[1])
	}
}

// TestInterleavedReadWriteBatches hammers the store with alternating
// batches and verifies against a plain map.
func TestInterleavedReadWriteBatches(t *testing.T) {
	const n, vars = 64, 256
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 3))
	eng := NewEngine(st, NewCompleteBipartite(), n)
	ref := map[int]model.Word{}
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 30; round++ {
		var reqs []Request
		seen := map[int]bool{}
		for i := 0; i < n/2; i++ {
			v := rng.Intn(vars)
			if seen[v] {
				continue
			}
			seen[v] = true
			val := model.Word(rng.Intn(1 << 20))
			reqs = append(reqs, Request{Proc: rng.Intn(n), Var: v, Write: true, Value: val})
			ref[v] = val
		}
		if res := eng.ExecuteBatch(reqs); res.Stalled {
			t.Fatal("stalled")
		}
	}
	// Full read-back.
	for v, want := range ref {
		res := eng.ExecuteBatch([]Request{{Proc: v % n, Var: v}})
		if res.Values[0] != want {
			t.Fatalf("var %d = %d, want %d", v, res.Values[0], want)
		}
	}
}

// TestFreshCopiesInvariantUnderLoad: after every write batch, each written
// variable has at least c fresh copies — the quorum-intersection
// precondition — even under heavy interleaving.
func TestFreshCopiesInvariantUnderLoad(t *testing.T) {
	const n = 128
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 5))
	eng := NewEngine(st, NewCompleteBipartite(), n)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 10; round++ {
		var reqs []Request
		seen := map[int]bool{}
		for len(reqs) < n {
			v := rng.Intn(512)
			if seen[v] {
				continue
			}
			seen[v] = true
			reqs = append(reqs, Request{Proc: len(reqs), Var: v, Write: true, Value: 1})
		}
		eng.ExecuteBatch(reqs)
		for v := range seen {
			if fresh := st.FreshCopies(v); fresh < p.C {
				t.Fatalf("round %d: var %d has %d fresh copies < c=%d", round, v, fresh, p.C)
			}
		}
	}
}

// TestEngineOversizedRedundancyPanics guards the copy bitmask width: the
// engine refuses a map with r > 64 at construction.
func TestEngineOversizedRedundancyPanics(t *testing.T) {
	p := memmap.Params{N: 8, M: 512, Mem: 64, K: 2, Eps: 1, B: 4, C: 40} // r = 79 > 64
	mp := memmap.Generate(p, 1)
	defer func() {
		if recover() == nil {
			t.Error("r > 64 did not panic")
		}
	}()
	eng := NewEngine(NewStore(mp), NewCompleteBipartite(), 8)
	eng.ExecuteBatch([]Request{{Proc: 0, Var: 1, Write: true, Value: 1}})
}
