package machine

import (
	"runtime"
	"testing"

	"repro/internal/ideal"
	"repro/internal/model"
)

// TestThousandProcessors checks the coroutine harness at P-RAM scale:
// 1024 processors through a multi-round program with mixed halts.
func TestThousandProcessors(t *testing.T) {
	const n = 1024
	back := ideal.New(n, 2*n, model.CREW)
	m := New(back)
	rep := m.RunEach(func(id int) Program {
		return func(p *Proc) {
			// Processors do id%7+1 rounds of read-modify-write on their
			// own cell, halting at different times.
			for k := 0; k <= id%7; k++ {
				v := p.Read(id)
				p.Write(id, v+1)
			}
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := model.Word(i%7 + 1)
		if got := back.ReadCell(i); got != want {
			t.Fatalf("cell %d = %d, want %d", i, got, want)
		}
	}
	// Steps = 2 × max rounds (7): stragglers define the step count.
	if rep.Steps != 14 {
		t.Errorf("steps = %d, want 14", rep.Steps)
	}
}

// TestInterleavedSyncPatterns drives processors whose step sequences are
// composed of different primitives each round — the scheduler must stay in
// lockstep regardless.
func TestInterleavedSyncPatterns(t *testing.T) {
	const n = 60
	back := ideal.New(n, n+1, model.CRCWPriority)
	m := New(back)
	rep := m.RunEach(func(id int) Program {
		return func(p *Proc) {
			for round := 0; round < 9; round++ {
				switch (id + round) % 3 {
				case 0:
					p.Read((id + round) % n)
				case 1:
					p.Write(n, model.Word(id))
				default:
					p.Sync()
				}
			}
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 9 {
		t.Errorf("steps = %d, want 9", rep.Steps)
	}
}

// TestRepeatedRuns confirms a machine cannot be reused mid-flight but a
// fresh machine over the same backend continues from committed state.
func TestRepeatedRunsAccumulateState(t *testing.T) {
	back := ideal.New(4, 8, model.CREW)
	for round := 1; round <= 3; round++ {
		m := New(back)
		rep := m.Run(func(p *Proc) {
			v := p.Read(p.ID())
			p.Write(p.ID(), v+1)
		})
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if got := back.ReadCell(i); got != 3 {
			t.Errorf("cell %d = %d, want 3 after three runs", i, got)
		}
	}
}

// TestAllHaltImmediately is the degenerate program.
func TestAllHaltImmediately(t *testing.T) {
	back := ideal.New(16, 16, model.EREW)
	rep := New(back).Run(func(p *Proc) {})
	if rep.Steps != 0 || rep.SimTime != 0 {
		t.Errorf("empty program cost %d steps / %d time", rep.Steps, rep.SimTime)
	}
}

// TestNoAllocationPerStep: the step loop reuses one batch for the whole
// run, so what a run allocates does not grow with its step count.
func TestNoAllocationPerStep(t *testing.T) {
	const n = 1024
	back := ideal.New(n, n, model.EREW)
	alloc := func(steps int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := New(back).Run(func(p *Proc) {
			for s := int64(0); s < steps; s++ {
				if s%2 == 0 {
					p.Read(p.ID())
				} else {
					p.Write(p.ID(), s)
				}
			}
		})
		runtime.ReadMemStats(&after)
		if err := rep.Err(); err != nil || rep.Steps != steps {
			t.Fatalf("%d-step run: %d steps, err %v", steps, rep.Steps, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(20) // warm the backend's reusable buffers
	// TotalAlloc counts every goroutine's allocation, so take the least
	// growth of three tries: background noise only ever adds.
	growth := uint64(1 << 62)
	for try := 0; try < 3; try++ {
		short, long := alloc(20), alloc(220)
		t.Logf("20 steps: %d bytes, 220 steps: %d bytes", short, long)
		growth = min(growth, long-min(long, short))
	}
	if growth >= 32<<10 {
		t.Errorf("200 more steps allocated %d more bytes; want no allocation per step", growth)
	}
}
