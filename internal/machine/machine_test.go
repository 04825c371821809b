package machine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ideal"
	"repro/internal/model"
)

// TestParallelSum runs the canonical O(log n) EREW tree reduction: cell i
// holds i+1; after the program, cell 0 holds n(n+1)/2.
func TestParallelSum(t *testing.T) {
	const n = 16
	back := ideal.New(n, n, model.EREW)
	vals := make([]model.Word, n)
	for i := range vals {
		vals[i] = model.Word(i + 1)
	}
	back.LoadCells(0, vals)
	m := New(back)
	rep := m.Run(func(p *Proc) {
		for stride := 1; stride < p.N(); stride *= 2 {
			if p.ID()%(2*stride) == 0 && p.ID()+stride < p.N() {
				a := p.Read(p.ID())
				b := p.Read(p.ID() + stride)
				p.Write(p.ID(), a+b)
			} else {
				// Keep lockstep with the active processors (3 steps).
				p.Sync()
				p.Sync()
				p.Sync()
			}
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("run error: %v", err)
	}
	if got := back.ReadCell(0); got != n*(n+1)/2 {
		t.Errorf("sum = %d, want %d", got, n*(n+1)/2)
	}
	wantSteps := int64(3 * 4) // log2(16) rounds of 3 steps
	if rep.Steps != wantSteps {
		t.Errorf("steps = %d, want %d", rep.Steps, wantSteps)
	}
	if rep.SimTime != wantSteps {
		t.Errorf("ideal sim time = %d, want %d", rep.SimTime, wantSteps)
	}
}

func TestRunEachPerProcessorPrograms(t *testing.T) {
	const n = 8
	back := ideal.New(n, n, model.EREW)
	m := New(back)
	rep := m.RunEach(func(id int) Program {
		return func(p *Proc) {
			p.Write(id, model.Word(id*id))
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("run error: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := back.ReadCell(i); got != model.Word(i*i) {
			t.Errorf("cell %d = %d, want %d", i, got, i*i)
		}
	}
	if rep.Steps != 1 {
		t.Errorf("steps = %d, want 1", rep.Steps)
	}
}

// TestEarlyHalt checks that processors may halt at different times without
// deadlocking the rest.
func TestEarlyHalt(t *testing.T) {
	const n = 6
	back := ideal.New(n, n, model.EREW)
	m := New(back)
	rep := m.RunEach(func(id int) Program {
		return func(p *Proc) {
			for k := 0; k <= id; k++ {
				p.Write(id, model.Word(k))
			}
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("run error: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := back.ReadCell(i); got != model.Word(i) {
			t.Errorf("cell %d = %d, want %d", i, got, i)
		}
	}
	if rep.Steps != n { // processor n-1 runs n steps; earlier steps overlap
		t.Errorf("steps = %d, want %d", rep.Steps, n)
	}
}

func TestPanicIsolatedAndReported(t *testing.T) {
	const n = 4
	back := ideal.New(n, n, model.CREW)
	m := New(back)
	rep := m.RunEach(func(id int) Program {
		return func(p *Proc) {
			if id == 2 {
				panic("boom")
			}
			p.Write(id, 1)
		}
	})
	if len(rep.Panics) != 1 {
		t.Fatalf("panics = %d, want 1", len(rep.Panics))
	}
	if !strings.Contains(rep.Panics[0].Error(), "processor 2") {
		t.Errorf("panic error = %v", rep.Panics[0])
	}
	if back.ReadCell(0) != 1 || back.ReadCell(1) != 1 || back.ReadCell(3) != 1 {
		t.Error("surviving processors did not complete")
	}

	// Panics arrive in step order, ascending processor id within a step,
	// so the report (and what Err returns) never depends on scheduling.
	const wide = 64
	var want []string
	for id := 0; id < wide; id += 7 {
		want = append(want, fmt.Sprintf("processor %d panicked: boom %d", id, id))
	}
	for run := 0; run < 100; run++ {
		rep := New(ideal.New(wide, wide, model.CREW)).RunEach(func(id int) Program {
			return func(p *Proc) {
				p.Sync()
				if id%7 == 0 {
					panic(fmt.Sprintf("boom %d", id))
				}
				p.Write(id, 1)
			}
		})
		if got := messages(rep.Panics); !slices.Equal(got, want) {
			t.Fatalf("run %d: panics %q, want %q", run, got, want)
		}
	}
}

// TestWritesAndSyncsDoNotYield: a processor runs through Writes and Syncs
// without yielding until its queue is full, so its local code runs ahead
// of the steps that execute them, and it is resumed once the queue drains.
func TestWritesAndSyncsDoNotYield(t *testing.T) {
	var queued, refilled bool
	var seen [][2]bool // processor 1's view of the flags before its Read at each step
	rep := New(ideal.New(2, 2, model.EREW)).RunEach(func(id int) Program {
		if id == 0 {
			return func(p *Proc) {
				for range 10 {
					p.Write(0, 1)
				}
				queued = true
				for range queueCap - 10 { // the last Sync fills the queue
					p.Sync()
				}
				refilled = true
				p.Sync()
			}
		}
		return func(p *Proc) {
			for range queueCap + 2 {
				seen = append(seen, [2]bool{queued, refilled})
				p.Read(1)
			}
		}
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for step, flags := range seen {
		if want := [2]bool{true, step >= queueCap}; flags != want {
			t.Fatalf("step %d: processor 0 had queued %v, refilled %v; want %v", step, flags[0], flags[1], want)
		}
	}
}

// TestProcLayout pins the cache-line layout Proc's comment describes.
func TestProcLayout(t *testing.T) {
	var p Proc
	if size := unsafe.Sizeof(p); size%64 != 0 {
		t.Errorf("Proc is %d bytes, not a whole number of 64-byte lines", size)
	}
	if end := unsafe.Offsetof(p.queue) + unsafe.Sizeof(p.queue[0]); end > 64 {
		t.Errorf("Proc's first queue slot ends at byte %d, past the first cache line", end)
	}
}

// messages returns the text of each error in errs.
func messages(errs []error) []string {
	var out []string
	for _, err := range errs {
		out = append(out, err.Error())
	}
	return out
}

// TestOutOfRangeAddressHaltsProcessor: an address outside shared memory
// fails the offending processor through the panic path instead of crashing
// the backend, and the other processors complete.
func TestOutOfRangeAddressHaltsProcessor(t *testing.T) {
	const n = 4
	back := ideal.New(n, n, model.EREW)
	rep := New(back).RunEach(func(id int) Program {
		return func(p *Proc) {
			switch id {
			case 1:
				p.Write(-1, 7)
			case 2:
				p.Read(n)
			}
			p.Write(id, model.Word(10+id))
		}
	})
	want := []string{
		"processor 1 panicked: write of cell -1 outside shared memory [0, 4)",
		"processor 2 panicked: read of cell 4 outside shared memory [0, 4)",
	}
	if got := messages(rep.Panics); !slices.Equal(got, want) {
		t.Fatalf("panics %q, want %q", got, want)
	}
	for id, cell := range []model.Word{10, 0, 0, 13} {
		if v := back.ReadCell(id); v != cell {
			t.Errorf("cell %d = %d, want %d", id, v, cell)
		}
	}
}

// panicAt is a backend whose step number at panics with value.
type panicAt struct {
	model.Backend
	at, step int
	value    any
}

func (b *panicAt) ExecuteStep(batch model.Batch) model.StepReport {
	if b.step++; b.step == b.at {
		panic(b.value)
	}
	return b.Backend.ExecuteStep(batch)
}

// TestBackendPanicStopsProcessors: a backend panic unwinds Run with the
// backend's own panic value and leaves no processor behind.
func TestBackendPanicStopsProcessors(t *testing.T) {
	const n = 64
	base := runtime.NumGoroutine()
	boom := errors.New("backend failure")
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("Run raised %v, want %v", r, boom)
			}
		}()
		back := &panicAt{Backend: ideal.New(n, n, model.EREW), at: 2, value: boom}
		New(back).Run(func(p *Proc) {
			for {
				p.Write(p.ID(), 1)
			}
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, %d before Run: processors leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestViolationSurfacesInReport(t *testing.T) {
	const n = 2
	back := ideal.New(n, 4, model.EREW)
	m := New(back)
	rep := m.Run(func(p *Proc) {
		p.Read(0) // both processors read cell 0: EREW violation
	})
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(rep.Violations))
	}
	if rep.Err() == nil {
		t.Error("Err() should surface the violation")
	}
}

// TestBroadcastCREW exercises concurrent reads: all processors read cell 0
// and write it to their own cell.
func TestBroadcastCREW(t *testing.T) {
	const n = 32
	back := ideal.New(n, 2*n, model.CREW)
	back.LoadCells(0, []model.Word{77})
	m := New(back)
	rep := m.Run(func(p *Proc) {
		v := p.Read(0)
		p.Write(n+p.ID(), v)
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("run error: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := back.ReadCell(n + i); got != 77 {
			t.Errorf("cell %d = %d, want 77", n+i, got)
		}
	}
	if rep.Steps != 2 {
		t.Errorf("steps = %d, want 2", rep.Steps)
	}
}

func TestReadsSeePreStepState(t *testing.T) {
	// Processor 0 writes cell 1 while processor 1 reads cell 1 in the same
	// step: the read must see the old value on every backend.
	back := ideal.New(2, 4, model.CRCWPriority)
	back.LoadCells(1, []model.Word{5})
	m := New(back)
	var seen model.Word
	m.RunEach(func(id int) Program {
		if id == 0 {
			return func(p *Proc) { p.Write(1, 9) }
		}
		return func(p *Proc) { seen = p.Read(1) }
	})
	if seen != 5 {
		t.Errorf("same-step read saw %d, want pre-step 5", seen)
	}
	if back.ReadCell(1) != 9 {
		t.Errorf("write lost: cell = %d", back.ReadCell(1))
	}
}
