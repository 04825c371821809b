// External-package allocation test for the quorum backend over the REAL
// interconnect: a 2DMOT packet network. (External so it can import
// repro/internal/mot, which itself imports quorum.) It extends the
// steady-state zero-allocation invariant across the whole pipeline —
// engine scratch arena, mesh router, step dedup/report.
package quorum_test

import (
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// TestExecuteStepMeshZeroAllocs locks the whole step pipeline of a quorum
// machine on the 2DMOT at Theorem 3 parameters — conflict check, dedup,
// engine, packet routing, report — at zero steady-state allocations once
// the arenas have grown.
func TestExecuteStepMeshZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 64
	p, side := memmap.TheoremThree(n, 2, 2)
	nw := mot.NewNetwork(side, mot.ModulesAtLeaves, mot.Config{})
	m := quorum.NewMachine("mot-alloc-test", n, model.CRCWPriority, quorum.NewStore(memmap.Generate(p, 3)), nw)
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: (i * 7) % n}
		} else {
			batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: (i * 3) % n, Value: model.Word(i)}
		}
	}
	for i := 0; i < 5; i++ { // grow the arenas
		if rep := m.ExecuteStep(batch); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		if rep := m.ExecuteStep(batch); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}); avg != 0 {
		t.Errorf("ExecuteStep over the mesh allocates %.1f/op in steady state, want 0", avg)
	}
}
