package ida

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gf"
	"repro/internal/ideal"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestDispersalRoundtripAllSubsets(t *testing.T) {
	dp := NewDispersal(3, 6)
	block := gf.Vec{11, 22, 33}
	shares := dp.Encode(nil, block)
	if len(shares) != 6 {
		t.Fatalf("shares = %d, want 6", len(shares))
	}
	// Every 3-subset of the 6 shares must recover the block.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			for k := j + 1; k < 6; k++ {
				idxs := []int{i, j, k}
				got := dp.Decode(nil, idxs, gf.Vec{shares[i], shares[j], shares[k]})
				for x := range block {
					if got[x] != block[x] {
						t.Fatalf("subset %v: got %v, want %v", idxs, got, block)
					}
				}
			}
		}
	}
}

func TestDispersalRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 1 + rng.Intn(10)
		d := b + rng.Intn(10)
		dp := NewDispersal(b, d)
		block := make(gf.Vec, b)
		for i := range block {
			block[i] = gf.Elem(rng.Intn(gf.P))
		}
		shares := dp.Encode(nil, block)
		// Random b-subset.
		perm := rng.Perm(d)[:b]
		sub := make(gf.Vec, b)
		for i, ix := range perm {
			sub[i] = shares[ix]
		}
		got := dp.Decode(nil, perm, sub)
		for i := range block {
			if got[i] != block[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDispersalBadParamsPanics(t *testing.T) {
	for _, tc := range [][2]int{{0, 3}, {4, 3}, {1, gf.P}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDispersal(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			NewDispersal(tc[0], tc[1])
		}()
	}
}

func TestDispersalBlowup(t *testing.T) {
	if NewDispersal(4, 8).Blowup() != 2 {
		t.Error("blowup wrong")
	}
}

func TestMemoryReadZeroInitially(t *testing.T) {
	mem := NewMemory(16, Config{MemCells: 64})
	for _, a := range []int{0, 7, 63} {
		if got := mem.ReadCell(a); got != 0 {
			t.Errorf("cell %d = %d, want 0", a, got)
		}
	}
}

func TestMemoryWriteReadStep(t *testing.T) {
	mem := NewMemory(16, Config{MemCells: 64})
	w := model.NewBatch(16)
	w[0] = model.Request{Proc: 0, Op: model.OpWrite, Addr: 5, Value: 1234}
	w[1] = model.Request{Proc: 1, Op: model.OpWrite, Addr: 40, Value: -77}
	rep := mem.ExecuteStep(w)
	if rep.Time <= 0 {
		t.Error("write step charged no time")
	}
	r := model.NewBatch(16)
	r[2] = model.Request{Proc: 2, Op: model.OpRead, Addr: 5}
	r[3] = model.Request{Proc: 3, Op: model.OpRead, Addr: 40}
	rep = mem.ExecuteStep(r)
	if rep.Values[2] != 1234 {
		t.Errorf("read = %d, want 1234", rep.Values[2])
	}
	if rep.Values[3] != -77 {
		t.Errorf("read = %d, want -77 (negative words must survive limb coding)", rep.Values[3])
	}
}

func TestMemoryReadsSeePreStepState(t *testing.T) {
	mem := NewMemory(8, Config{MemCells: 32})
	mem.LoadCells(3, []model.Word{50})
	b := model.NewBatch(8)
	b[0] = model.Request{Proc: 0, Op: model.OpWrite, Addr: 3, Value: 99}
	b[1] = model.Request{Proc: 1, Op: model.OpRead, Addr: 3}
	rep := mem.ExecuteStep(b)
	if rep.Values[1] != 50 {
		t.Errorf("same-step read = %d, want pre-step 50", rep.Values[1])
	}
	if mem.ReadCell(3) != 99 {
		t.Errorf("write lost: %d", mem.ReadCell(3))
	}
}

func TestMemorySameBlockWritersResolvedByPriority(t *testing.T) {
	mem := NewMemory(8, Config{MemCells: 32, Mode: model.CRCWPriority})
	b := model.NewBatch(8)
	b[4] = model.Request{Proc: 4, Op: model.OpWrite, Addr: 10, Value: 44}
	b[2] = model.Request{Proc: 2, Op: model.OpWrite, Addr: 10, Value: 22}
	mem.ExecuteStep(b)
	if got := mem.ReadCell(10); got != 22 {
		t.Errorf("priority write = %d, want 22 (lowest proc)", got)
	}
}

// TestMemoryRefusesMisindexedEntry: an active batch entry whose Proc is
// not its index is refused with a panic that names the entry.
func TestMemoryRefusesMisindexedEntry(t *testing.T) {
	mem := NewMemory(8, Config{MemCells: 32, Mode: model.CRCWPriority})
	b := model.NewBatch(8)
	b[2] = model.Request{Proc: 4, Op: model.OpWrite, Addr: 10, Value: 44}
	defer func() {
		msg, _ := recover().(string)
		if want := "batch entry 2 holds processor 4's request"; !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one naming %q", msg, want)
		}
	}()
	mem.ExecuteStep(b)
}

func TestMemoryEquivalenceWithIdeal(t *testing.T) {
	f := func(seed int64) bool {
		const n, m = 8, 64
		mem := NewMemory(n, Config{MemCells: m, Mode: model.CRCWPriority, Seed: seed})
		id := ideal.New(n, m, model.CRCWPriority)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 6; round++ {
			batch := model.NewBatch(n)
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(m)}
				case 1:
					batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: rng.Intn(m), Value: model.Word(rng.Int63n(1 << 40))}
				}
			}
			sr := mem.ExecuteStep(batch)
			ir := id.ExecuteStep(batch)
			for p, v := range ir.Values {
				if sr.Values[p] != v {
					return false
				}
			}
		}
		for a := 0; a < m; a++ {
			if mem.ReadCell(a) != id.ReadCell(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMemoryWorkloadSuite(t *testing.T) {
	for _, w := range workloads.All(16, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			mem := NewMemory(w.Procs, Config{MemCells: w.Cells, Mode: w.Mode})
			if _, err := workloads.RunOn(w, mem); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConstantStorageBlowupGrowingWork(t *testing.T) {
	// The scheme's signature: storage blowup d/b stays constant as n grows,
	// but the per-access field work grows with b = Θ(log n).
	small := NewMemory(16, Config{MemCells: 256})
	large := NewMemory(1024, Config{MemCells: 4096})
	if small.Blowup() != large.Blowup() {
		t.Errorf("blowup varies: %v vs %v", small.Blowup(), large.Blowup())
	}
	probe := func(mem *Memory) int64 {
		before := mem.FieldOps()
		b := model.NewBatch(mem.Procs())
		b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: 0}
		mem.ExecuteStep(b)
		return mem.FieldOps() - before
	}
	if probe(large) <= probe(small) {
		t.Error("per-access field work should grow with n (b = Θ(log n))")
	}
}

func TestMemoryFieldOpsAccumulate(t *testing.T) {
	mem := NewMemory(8, Config{MemCells: 32})
	if mem.FieldOps() != 0 {
		t.Error("fresh memory has nonzero work")
	}
	b := model.NewBatch(8)
	b[0] = model.Request{Proc: 0, Op: model.OpWrite, Addr: 0, Value: 1}
	mem.ExecuteStep(b)
	if mem.FieldOps() == 0 {
		t.Error("write performed no field work")
	}
}

// TestFieldOpsCountOnlySteps: verification (ReadCell) and setup
// (LoadCells) are free, so FieldOps does not move across them, and a
// step's work and report are the same with or without an earlier ReadCell.
func TestFieldOpsCountOnlySteps(t *testing.T) {
	const n = 64
	mem := NewMemory(n, Config{MemCells: 4096})
	mem.ReadCell(0)
	mem.LoadCells(10, []model.Word{1, 2, 3, 4, 5, 6, 7, 8, 9})
	mem.ReadCell(12)
	if ops := mem.FieldOps(); ops != 0 {
		t.Errorf("ReadCell and LoadCells counted %d field ops, want 0", ops)
	}
	step := func(verify bool) (int64, model.StepReport) {
		mem := NewMemory(n, Config{MemCells: 4096})
		if verify {
			mem.ReadCell(0)
		}
		before := mem.FieldOps()
		b := model.NewBatch(n)
		b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: 0}
		b[1] = model.Request{Proc: 1, Op: model.OpWrite, Addr: 100, Value: 7}
		rep := mem.ExecuteStep(b)
		return mem.FieldOps() - before, rep
	}
	plain, plainRep := step(false)
	verified, verifiedRep := step(true)
	if plain == 0 || verified != plain {
		t.Errorf("step field ops: %d after a ReadCell, %d without; want equal and nonzero", verified, plain)
	}
	if verifiedRep.Time != plainRep.Time || verifiedRep.CopyAccesses != plainRep.CopyAccesses ||
		verifiedRep.ModuleContention != plainRep.ModuleContention {
		t.Errorf("step report after a ReadCell %+v, without %+v", verifiedRep, plainRep)
	}
}

func TestMemoryTooManySharesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("d > M did not panic")
		}
	}()
	NewMemory(4, Config{MemCells: 16, BlockLen: 4, Shares: 8})
}

// TestExecuteStepZeroAllocs: once its scratch has grown, a step allocates
// nothing — on a read step, a write step, and a mixed step whose reads
// and writes share blocks, under CRCW-Priority and under the EREW check.
func TestExecuteStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 64
	for _, mode := range []model.Mode{model.CRCWPriority, model.EREW} {
		mem := NewMemory(n, Config{MemCells: 4096, Mode: mode})
		rng := rand.New(rand.NewSource(8))
		reads, writes, mixed := model.NewBatch(n), model.NewBatch(n), model.NewBatch(n)
		for i, a := range rng.Perm(mem.MemSize())[:n] {
			reads[i] = model.Request{Proc: i, Op: model.OpRead, Addr: a}
			writes[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: a, Value: model.Word(i)}
			// Consecutive cells: every block holds reads and writes.
			mixed[i] = model.Request{Proc: i, Op: model.OpRead, Addr: i}
			if i%3 == 0 {
				mixed[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: i, Value: model.Word(i)}
			}
		}
		for _, c := range []struct {
			name string
			b    model.Batch
		}{{"reads", reads}, {"writes", writes}, {"mixed", mixed}} {
			if rep := mem.ExecuteStep(c.b); rep.Err != nil {
				t.Fatalf("%v %s: %v", mode, c.name, rep.Err)
			}
			if avg := testing.AllocsPerRun(20, func() { mem.ExecuteStep(c.b) }); avg != 0 {
				t.Errorf("%v %s step allocates %.1f/op, want 0", mode, c.name, avg)
			}
		}
	}
}
