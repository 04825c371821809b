package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/quorum"
)

// mustBuild builds s twice: the machines under test and a twin that is
// stepped directly, so the two runs can be compared step by step.
func mustBuild(t *testing.T, s core.Spec) (b, twin *core.Built) {
	t.Helper()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	twin, err = s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b, twin
}

// TestBuiltExecuteSteps: Built.ExecuteSteps runs one round the way the
// built shape itself does, a pool's round through Pool.ExecuteSteps and a
// single machine's one step through Machine.ExecuteStep, with the same
// reports and the same committed store; a single machine refuses a round
// of more than one batch.
func TestBuiltExecuteSteps(t *testing.T) {
	pool, poolTwin := mustBuild(t, core.Spec{Kind: core.KindDMMPC, Lanes: 3, Procs: 8})
	for round := 0; round < 4; round++ {
		batches := poolBandSteps(pool.Pool, round)
		got := pool.ExecuteSteps(batches)
		want := poolTwin.Pool.ExecuteSteps(batches)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pool round %d: Built.ExecuteSteps = %+v, Pool.ExecuteSteps = %+v", round, got, want)
		}
	}
	if pool.Store.Fingerprint() != poolTwin.Store.Fingerprint() {
		t.Error("pool: the stores differ after the same rounds")
	}

	const n = 8
	single, singleTwin := mustBuild(t, core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: n})
	for round := 0; round < 4; round++ {
		b := model.NewBatch(n)
		for i := range b {
			if (i+round)%2 == 0 {
				b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: 3*i + round, Value: model.Word(100*round + i)}
			} else {
				b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: 3*i + round - 1} // the previous round's write
			}
		}
		got := single.ExecuteSteps([]model.Batch{b})
		want := singleTwin.Machine.ExecuteStep(b)
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("single round %d: Built.ExecuteSteps = %+v, Machine.ExecuteStep = %+v", round, got, want)
		}
	}
	if single.Store.Fingerprint() != singleTwin.Store.Fingerprint() {
		t.Error("single machine: the stores differ after the same steps")
	}

	defer func() {
		if recover() == nil {
			t.Error("a single machine ran a round of two batches")
		}
	}()
	single.ExecuteSteps(make([]model.Batch, 2))
}

// laneSink records which lane each step arrived on and where the round
// barriers fell.
type laneSink struct {
	lanes     []int
	barrierAt []int // len(lanes) at each StepBarrier
}

func (s *laneSink) RecordStep(lane int, _ quorum.DedupStep, _ model.StepReport) {
	s.lanes = append(s.lanes, lane)
}
func (s *laneSink) RecordLoad(int, model.Addr, []model.Word) {}
func (s *laneSink) StepBarrier()                             { s.barrierAt = append(s.barrierAt, len(s.lanes)) }

// TestBuiltSetStepSink: Built.SetStepSink attaches one sink to every
// lane, a pool's shards as lanes 0…K−1 with a barrier closing each round
// and a single machine as lane 0 with no barrier, and nil detaches it.
func TestBuiltSetStepSink(t *testing.T) {
	pool, err := core.Spec{Kind: core.KindDMMPC, Lanes: 3, Procs: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &laneSink{}
	pool.SetStepSink(sink)
	for round := 0; round < 2; round++ {
		pool.ExecuteSteps(poolBandSteps(pool.Pool, round))
	}
	pool.SetStepSink(nil)
	pool.ExecuteSteps(poolBandSteps(pool.Pool, 2))
	if want := []int{0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(sink.lanes, want) {
		t.Errorf("pool lanes = %v, want %v", sink.lanes, want)
	}
	if want := []int{3, 6}; !reflect.DeepEqual(sink.barrierAt, want) {
		t.Errorf("pool barriers after %v steps, want %v", sink.barrierAt, want)
	}

	const n = 8
	single, err := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: n}.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink = &laneSink{}
	single.SetStepSink(sink)
	for s := 0; s < 3; s++ {
		single.ExecuteSteps([]model.Batch{model.NewBatch(n)})
	}
	single.SetStepSink(nil)
	single.ExecuteSteps([]model.Batch{model.NewBatch(n)})
	if want := []int{0, 0, 0}; !reflect.DeepEqual(sink.lanes, want) || len(sink.barrierAt) != 0 {
		t.Errorf("single machine: lanes %v, barriers %v; want lanes %v and no barrier", sink.lanes, sink.barrierAt, want)
	}
}
