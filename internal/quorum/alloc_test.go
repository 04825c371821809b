package quorum

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// allocSetup builds an engine plus canonical read and write batches.
func allocSetup(n int) (*Engine, []Request, []Request) {
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 11))
	eng := NewEngine(st, NewCompleteBipartite(), n)
	writes := make([]Request, n)
	reads := make([]Request, n)
	for i := range writes {
		writes[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(i)}
		reads[i] = Request{Proc: i, Var: i}
	}
	return eng, reads, writes
}

// TestExecuteBatchZeroAllocs locks the engine's steady-state zero-allocation
// invariant: once the scratch arena has grown to the batch shape, neither
// read nor write batches touch the heap.
func TestExecuteBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	eng, reads, writes := allocSetup(256)
	for i := 0; i < 3; i++ { // grow the arena
		eng.ExecuteBatch(writes)
		eng.ExecuteBatch(reads)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if eng.ExecuteBatch(writes).Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatch(writes) allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if eng.ExecuteBatch(reads).Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatch(reads) allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestExecuteBatchTwoStageZeroAllocs extends the invariant to the two-stage
// schedule, which exercises the arena's secondary result buffers.
func TestExecuteBatchTwoStageZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	eng, reads, writes := allocSetup(256)
	cfg := TwoStageConfig{}
	for i := 0; i < 3; i++ {
		eng.ExecuteBatchTwoStage(writes, cfg)
		eng.ExecuteBatchTwoStage(reads, cfg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if r := eng.ExecuteBatchTwoStage(writes, cfg); r.Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatchTwoStage allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestExecuteStepZeroAllocs locks the whole backend step pipeline — conflict
// check, sorted dedup, engine, interconnect, report — at zero steady-state
// allocations under every conflict mode, each on a batch legal under it.
func TestExecuteStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 11))
	// request gives processor i's action: even processors read, odd ones
	// write.
	cases := []struct {
		mode    model.Mode
		request func(i int) model.Request
	}{
		{model.CRCWPriority, func(i int) model.Request { // colliding reads and writes
			if i%2 == 0 {
				return model.Request{Proc: i, Op: model.OpRead, Addr: (i * 7) % n}
			}
			return model.Request{Proc: i, Op: model.OpWrite, Addr: (i * 3) % n, Value: model.Word(i)}
		}},
		{model.EREW, func(i int) model.Request { // every address once
			if i%2 == 0 {
				return model.Request{Proc: i, Op: model.OpRead, Addr: i}
			}
			return model.Request{Proc: i, Op: model.OpWrite, Addr: i, Value: model.Word(i)}
		}},
		{model.CREW, func(i int) model.Request { // pairs of readers, distinct writers
			if i%2 == 0 {
				return model.Request{Proc: i, Op: model.OpRead, Addr: i % (n / 4)}
			}
			return model.Request{Proc: i, Op: model.OpWrite, Addr: n/2 + i/2, Value: model.Word(i)}
		}},
		{model.CRCWCommon, func(i int) model.Request { // writers of one cell agree
			if i%2 == 0 {
				return model.Request{Proc: i, Op: model.OpRead, Addr: i}
			}
			return model.Request{Proc: i, Op: model.OpWrite, Addr: n + i%8, Value: model.Word(i % 8)}
		}},
	}
	for _, c := range cases {
		t.Run(c.mode.String(), func(t *testing.T) {
			m := NewMachine("alloc-test", n, c.mode, st, NewCompleteBipartite())
			batch := model.NewBatch(n)
			for i := range batch {
				batch[i] = c.request(i)
			}
			for i := 0; i < 3; i++ {
				m.ExecuteStep(batch)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if rep := m.ExecuteStep(batch); rep.Err != nil {
					t.Fatal(rep.Err)
				}
			}); avg != 0 {
				t.Errorf("ExecuteStep allocates %.1f/op in steady state, want 0", avg)
			}
		})
	}
}

// TestRandomStepsDoNotAllocate runs a DMMPC (n = 256, M = n² modules) on
// seeded random addresses, alternating read and write steps, so every step
// reaches modules the steps before it did not: no per-module structure may
// grow with the modules a run has touched.
func TestRandomStepsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 256
	st := NewStore(memmap.Generate(memmap.LemmaTwo(n, 2, 1), 1))
	m := NewMachine("dmmpc", n, model.CRCWPriority, st, NewCompleteBipartite())
	rng := rand.New(rand.NewSource(17))
	batch := model.NewBatch(n)
	step := func(s int) {
		for i := range batch {
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(m.MemSize())}
			if s%2 == 1 {
				batch[i].Op, batch[i].Value = model.OpWrite, model.Word(s)
			}
		}
		if rep := m.ExecuteStep(batch); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	for s := 0; s < 4; s++ {
		step(s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 4; s < 204; s++ {
		step(s)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 32<<10 {
		t.Errorf("200 random steps allocated %d bytes; want no allocation per step", grew)
	}
}
