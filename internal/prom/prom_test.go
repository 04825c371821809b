package prom

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestDirectorySizing(t *testing.T) {
	p := memmap.Params{N: 64, M: 1024, Mem: 4096, K: 2, Eps: 0.5, B: 4, C: 3}
	d := NewDirectory(p)
	// 4096 vars × 5 refs × 10 bits = 204800 bits.
	if d.TotalBits() != 204800 {
		t.Errorf("TotalBits = %d, want 204800", d.TotalBits())
	}
	if d.ReplicatedBits(64) != 64*204800 {
		t.Errorf("ReplicatedBits wrong")
	}
	if d.Saving(64) != 64 {
		t.Errorf("Saving = %v, want n = 64", d.Saving(64))
	}
}

func TestLookupCostCombinesSameVariable(t *testing.T) {
	d := Directory{Vars: 100, Redundancy: 5, Modules: 16, BitsPerRef: 4}
	batch := model.NewBatch(8)
	for i := range batch {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: 7}
	}
	if got := d.LookupCost(batch); got != 1 {
		t.Errorf("combined lookup cost = %d, want 1", got)
	}
}

func TestLookupCostSerializesModuleCollisions(t *testing.T) {
	d := Directory{Vars: 100, Redundancy: 5, Modules: 16, BitsPerRef: 4}
	batch := model.NewBatch(3)
	// Addresses 1, 17, 33 all live at directory module 1.
	for i, a := range []int{1, 17, 33} {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: a}
	}
	if got := d.LookupCost(batch); got != 3 {
		t.Errorf("colliding lookups = %d phases, want 3", got)
	}
}

func TestLookupCostIdleFree(t *testing.T) {
	d := Directory{Vars: 10, Redundancy: 3, Modules: 4, BitsPerRef: 2}
	if got := d.LookupCost(model.NewBatch(8)); got != 0 {
		t.Errorf("idle batch cost %d", got)
	}
}

func TestWrappedMachineChargesLookups(t *testing.T) {
	dm := core.NewDMMPC(32, core.Config{})
	wrapped := Wrap(dm, dm.P)
	batch := model.NewBatch(32)
	for i := 0; i < 32; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: i}
	}
	inner := dm.ExecuteStep(batch)
	outer := wrapped.ExecuteStep(batch)
	if outer.Time <= inner.Time {
		t.Errorf("wrapped time %d not above inner %d", outer.Time, inner.Time)
	}
	if wrapped.LookupPhases() == 0 {
		t.Error("no lookup phases recorded")
	}
	if wrapped.Name() != dm.Name()+"+PROM" {
		t.Errorf("name = %q", wrapped.Name())
	}
}

// TestWrappedLookupZeroAllocs: after a warm-up step a wrapped machine's
// P-ROM charge reuses its buffer, allocates nothing, and costs what
// LookupCost says.
func TestWrappedLookupZeroAllocs(t *testing.T) {
	dm := core.NewDMMPC(64, core.Config{})
	wrapped := Wrap(dm, dm.P)
	batch := model.NewBatch(64)
	for i := range batch {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: i % 40 * 97 % dm.MemSize()}
	}
	wrapped.ExecuteStep(batch)
	var got int
	if avg := testing.AllocsPerRun(100, func() { got = wrapped.dir.lookupCost(batch, &wrapped.lookupBuf) }); avg != 0 {
		t.Errorf("a wrapped step's lookup allocates %.1f/op after warm-up, want 0", avg)
	}
	if want := wrapped.dir.LookupCost(batch); got != want {
		t.Errorf("lookup cost %d, LookupCost %d", got, want)
	}
}

func TestWrappedMachineSemanticsUnchanged(t *testing.T) {
	// The P-ROM only adds cost; values and memory must be untouched.
	w := workloads.PrefixSum(16, 3)
	dm := core.NewDMMPC(w.Procs, core.Config{Mode: w.Mode})
	if dm.MemSize() < w.Cells {
		t.Skip("memory too small")
	}
	wrapped := Wrap(dm, dm.P)
	if _, err := workloads.RunOn(w, wrapped); err != nil {
		t.Fatal(err)
	}
}

func TestSavingGrowsWithN(t *testing.T) {
	for _, n := range []int{64, 1024} {
		p := memmap.LemmaTwo(n, 2, 1)
		d := NewDirectory(p)
		if d.Saving(n) != float64(n) {
			t.Errorf("n=%d: saving %v", n, d.Saving(n))
		}
	}
}
