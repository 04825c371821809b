package quorum

import (
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

func TestTwoStageCompletesAndMatchesValues(t *testing.T) {
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 11)
	// Two engines over the SAME map: one plain, one two-stage; they must
	// agree on every read value.
	plainStore := NewStore(mp)
	tsStore := NewStore(mp)
	plain := NewEngine(plainStore, NewCompleteBipartite(), n)
	two := NewEngine(tsStore, NewCompleteBipartite(), n)

	writes := make([]Request, n)
	for i := range writes {
		writes[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(i * 5)}
	}
	pw := plain.ExecuteBatch(writes)
	tw := two.ExecuteBatchTwoStage(writes, TwoStageConfig{})
	if tw.Stalled {
		t.Fatal("two-stage stalled on a healthy map")
	}
	for i := range writes {
		if !pw.Satisfied[i] || !tw.Satisfied[i] {
			t.Fatalf("write %d unsatisfied (plain=%v two=%v)", i, pw.Satisfied[i], tw.Satisfied[i])
		}
	}
	reads := make([]Request, n)
	for i := range reads {
		reads[i] = Request{Proc: i, Var: (i + 7) % n}
	}
	pr := plain.ExecuteBatch(reads)
	tr := two.ExecuteBatchTwoStage(reads, TwoStageConfig{})
	for i := range reads {
		if pr.Values[i] != tr.Values[i] {
			t.Fatalf("read %d: plain %d vs two-stage %d", i, pr.Values[i], tr.Values[i])
		}
		want := model.Word(((i + 7) % n) * 5)
		if tr.Values[i] != want {
			t.Fatalf("read %d = %d, want %d", i, tr.Values[i], want)
		}
	}
}

func TestTwoStageEngagesStageTwoUnderTinyBudget(t *testing.T) {
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	eng := NewEngine(NewStore(memmap.Generate(p, 3)), NewCompleteBipartite(), n)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	res := eng.ExecuteBatchTwoStage(reqs, TwoStageConfig{Stage1Phases: 2})
	if res.Stage1Phases != 2 {
		t.Errorf("stage 1 phases = %d, want 2", res.Stage1Phases)
	}
	if res.Stage2Phases == 0 {
		t.Error("stage 2 never engaged despite truncated stage 1")
	}
	if res.Stalled {
		t.Error("two-stage failed to drain")
	}
	for i, ok := range res.Satisfied {
		if !ok {
			t.Fatalf("request %d unsatisfied", i)
		}
	}
}

func TestTwoStageFinishesInStageOneWhenEasy(t *testing.T) {
	const n = 64
	p := memmap.LemmaTwo(n, 2, 1)
	eng := NewEngine(NewStore(memmap.Generate(p, 3)), NewCompleteBipartite(), n)
	reqs := []Request{{Proc: 0, Var: 1, Write: true, Value: 9}}
	res := eng.ExecuteBatchTwoStage(reqs, TwoStageConfig{})
	if res.Stage2Phases != 0 {
		t.Errorf("trivial batch reached stage 2 (%d phases)", res.Stage2Phases)
	}
	if !res.Satisfied[0] {
		t.Error("unsatisfied")
	}
}

// TestTwoStageRestoresBandwidth: a batch that reaches stage 2 leaves the
// interconnect at the bandwidth it was built with, and never changes the
// engine's exported MaxPhases, not even while stage 1 runs.
func TestTwoStageRestoresBandwidth(t *testing.T) {
	const n = 128
	cb := &CompleteBipartite{Bandwidth: 2}
	probe := &maxPhasesProbe{CompleteBipartite: cb}
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 3)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	for _, net := range []Interconnect{cb, probe} {
		eng := NewEngine(NewStore(mp), net, n)
		probe.eng = eng
		for batch := 0; batch < 2; batch++ {
			if res := eng.ExecuteBatchTwoStage(reqs, TwoStageConfig{Stage1Phases: 1}); res.Stage2Phases == 0 {
				t.Fatalf("%T batch %d: stage 2 never engaged", net, batch)
			}
			if cb.Bandwidth != 2 {
				t.Fatalf("%T batch %d: bandwidth left at %d after stage 2, want 2", net, batch, cb.Bandwidth)
			}
		}
		if eng.MaxPhases != 0 {
			t.Errorf("%T: MaxPhases left at %d, want 0", net, eng.MaxPhases)
		}
	}
	for i, seen := range probe.seen {
		if seen != 0 {
			t.Fatalf("phase %d ran with MaxPhases = %d, want 0 throughout", i, seen)
		}
	}
}

// maxPhasesProbe is a CompleteBipartite that records its engine's
// exported MaxPhases at every phase it routes.
type maxPhasesProbe struct {
	*CompleteBipartite
	eng  *Engine
	seen []int
}

func (p *maxPhasesProbe) RoutePhase(attempts []Attempt) ([]bool, int64, int) {
	p.seen = append(p.seen, p.eng.MaxPhases)
	return p.CompleteBipartite.RoutePhase(attempts)
}

func TestTwoStageBudgetDefaults(t *testing.T) {
	ts := &TwoStageConfig{}
	// n=1024, r=7: passes = ceil(log2(ceil(log2 1024)+1))+2 = ceil(log2 11)+2 = 6;
	// budget = 42.
	if got := ts.stage1Budget(1024, 7); got != 42 {
		t.Errorf("stage1Budget = %d, want 42", got)
	}
	if got := ts.stage2Bandwidth(1024); got != 10 {
		t.Errorf("stage2Bandwidth = %d, want 10", got)
	}
	ts = &TwoStageConfig{Stage1Phases: 5, Stage2Bandwidth: 3}
	if ts.stage1Budget(1024, 7) != 5 || ts.stage2Bandwidth(1024) != 3 {
		t.Error("explicit overrides ignored")
	}
}
