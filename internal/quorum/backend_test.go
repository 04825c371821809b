package quorum

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

func backendSetup(t testing.TB, n int, mode model.Mode) *Machine {
	t.Helper()
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 7))
	return NewMachine("test-machine", n, mode, st, NewCompleteBipartite())
}

func TestBackendConcurrentReadsCombine(t *testing.T) {
	const n = 32
	m := backendSetup(t, n, model.CRCWPriority)
	m.LoadCells(5, []model.Word{123})
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: 5}
	}
	rep := m.ExecuteStep(batch)
	for i := 0; i < n; i++ {
		if rep.Values[i] != 123 {
			t.Fatalf("proc %d read %d", i, rep.Values[i])
		}
	}
	// Combined: the engine saw ONE request, costing ~r phases, far less
	// than n.
	if rep.Phases > 2*m.Redundancy() {
		t.Errorf("combined hot-spot read cost %d phases (r=%d)", rep.Phases, m.Redundancy())
	}
}

func TestBackendPriorityVsArbitraryWrites(t *testing.T) {
	mkBatch := func() model.Batch {
		b := model.NewBatch(16)
		b[1] = model.Request{Proc: 1, Op: model.OpWrite, Addr: 9, Value: 11}
		b[4] = model.Request{Proc: 4, Op: model.OpWrite, Addr: 9, Value: 44}
		b[7] = model.Request{Proc: 7, Op: model.OpWrite, Addr: 9, Value: 77}
		return b
	}
	pr := backendSetup(t, 16, model.CRCWPriority)
	pr.ExecuteStep(mkBatch())
	if got := pr.ReadCell(9); got != 11 {
		t.Errorf("priority committed %d, want 11", got)
	}
	ar := backendSetup(t, 16, model.CRCWArbitrary)
	ar.ExecuteStep(mkBatch())
	if got := ar.ReadCell(9); got != 77 {
		t.Errorf("arbitrary committed %d, want 77 (highest proc)", got)
	}
}

// TestStepContractRefused: the machine refuses a batch that breaks
// model.Batch's contract (an active entry that is not its index's
// processor, more entries than processors) or addresses a cell outside
// [0, MemSize()), and CompleteBipartite.RoutePhase refuses a phase out of
// processor order, each with a panic that names the violation. A refused
// step leaves the machine able to run the next one.
func TestStepContractRefused(t *testing.T) {
	const n = 8
	m := backendSetup(t, n, model.CRCWPriority)
	cells := m.MemSize()
	withEntry := func(i int, r model.Request) model.Batch {
		b := model.NewBatch(n)
		b[i] = r
		return b
	}
	for _, c := range []struct {
		name string
		run  func()
		want string
	}{
		{"entry not its processor", func() { m.ExecuteStep(withEntry(2, model.Request{Proc: 3, Op: model.OpRead, Addr: 1})) },
			"batch entry 2 holds processor 3's request"},
		{"more entries than processors", func() { m.ExecuteStep(model.NewBatch(n + 1)) },
			fmt.Sprintf("batch of %d entries for %d processors", n+1, n)},
		{"address past memory", func() { m.ExecuteStep(withEntry(5, model.Request{Proc: 5, Op: model.OpWrite, Addr: cells})) },
			fmt.Sprintf("batch entry 5 addresses cell %d outside [0,%d)", cells, cells)},
		{"negative address", func() { m.ExecuteStep(withEntry(0, model.Request{Proc: 0, Op: model.OpRead, Addr: -1})) },
			"batch entry 0 addresses cell -1"},
		{"phase out of processor order", func() { NewCompleteBipartite().RoutePhase([]Attempt{{Proc: 2}, {Proc: 2}, {Proc: 1}}) },
			"attempt 2 (processor 1) follows processor 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want one naming %q", msg, c.want)
				}
			}()
			c.run()
		})
	}
	m.LoadCells(1, []model.Word{42})
	rep := m.ExecuteStep(withEntry(3, model.Request{Proc: 3, Op: model.OpRead, Addr: 1}))
	if rep.Err != nil || len(rep.Values) != n || rep.Values[3] != 42 {
		t.Errorf("step after the refusals: err %v, %d values, processor 3 read %d, want 42", rep.Err, len(rep.Values), rep.Values[3])
	}
}

func TestBackendEREWViolationReported(t *testing.T) {
	m := backendSetup(t, 8, model.EREW)
	batch := model.Batch{
		{Proc: 0, Op: model.OpRead, Addr: 3},
		{Proc: 1, Op: model.OpRead, Addr: 3},
	}
	rep := m.ExecuteStep(batch)
	var ce *model.ConflictError
	if !errors.As(rep.Err, &ce) {
		t.Fatalf("EREW violation not surfaced: %v", rep.Err)
	}
}

func TestBackendStallSurfacesAsError(t *testing.T) {
	const n = 64
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.GenerateCorrupt(p, p.R(), 3))
	m := NewMachine("corrupt", n, model.CRCWPriority, st, NewCompleteBipartite())
	m.Engine().MaxPhases = 4
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: i, Value: 1}
	}
	rep := m.ExecuteStep(batch)
	var se *StallError
	if !errors.As(rep.Err, &se) {
		t.Fatalf("stall not surfaced: %v", rep.Err)
	}
	if se.Batch != "write" {
		t.Errorf("stalled batch = %q, want write", se.Batch)
	}
	if se.Live == 0 {
		t.Error("stall reports zero live requests")
	}
}

func TestBackendReadAndWriteSameCellInOneStep(t *testing.T) {
	m := backendSetup(t, 8, model.CRCWPriority)
	m.LoadCells(2, []model.Word{50})
	batch := model.Batch{
		{Proc: 0, Op: model.OpRead, Addr: 2},
		{Proc: 1, Op: model.OpWrite, Addr: 2, Value: 99},
	}
	rep := m.ExecuteStep(batch)
	if rep.Values[0] != 50 {
		t.Errorf("read saw %d, want pre-step 50", rep.Values[0])
	}
	if m.ReadCell(2) != 99 {
		t.Errorf("write lost")
	}
}

func TestBackendAccessors(t *testing.T) {
	m := backendSetup(t, 16, model.CREW)
	if m.Name() != "test-machine" {
		t.Error("name")
	}
	if m.Procs() != 16 {
		t.Error("procs")
	}
	if m.Mode() != model.CREW {
		t.Error("mode")
	}
	if m.Redundancy() != m.Store().Map().R() {
		t.Error("redundancy")
	}
	if m.Params() == "" {
		t.Error("params empty")
	}
	if m.MemSize() != m.Store().Map().Vars() {
		t.Error("memsize")
	}
}

func TestBackendNoNetworkCyclesOnBipartite(t *testing.T) {
	m := backendSetup(t, 8, model.CREW)
	batch := model.NewBatch(8)
	batch[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: 0}
	rep := m.ExecuteStep(batch)
	if rep.NetworkCycles != 0 {
		t.Errorf("bipartite machine reported %d network cycles", rep.NetworkCycles)
	}
}

func TestStallErrorMessage(t *testing.T) {
	e := &StallError{Batch: "read", Phases: 9, Live: 3}
	want := "quorum protocol stalled: read batch stopped after 9 phases with 3 live requests"
	if e.Error() != want {
		t.Errorf("message = %q", e.Error())
	}
}
