package hashsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ideal"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestWorkloadSuite(t *testing.T) {
	for _, w := range workloads.All(16, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := New(w.Procs, Config{MemCells: w.Cells, Mode: w.Mode})
			if _, err := workloads.RunOn(w, b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEquivalenceWithIdeal(t *testing.T) {
	f := func(seed int64) bool {
		const n, m = 12, 64
		hm := New(n, Config{MemCells: m, Mode: model.CRCWPriority, Seed: seed})
		id := ideal.New(n, m, model.CRCWPriority)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 6; round++ {
			batch := model.NewBatch(n)
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(m)}
				case 1:
					batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: rng.Intn(m), Value: model.Word(rng.Intn(9999))}
				}
			}
			hr := hm.ExecuteStep(batch)
			ir := id.ExecuteStep(batch)
			for p, v := range ir.Values {
				if hr.Values[p] != v {
					return false
				}
			}
		}
		for a := 0; a < m; a++ {
			if hm.ReadCell(a) != id.ReadCell(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomTrafficLowLoad(t *testing.T) {
	const n = 256
	hm := New(n, Config{Seed: 5})
	rng := rand.New(rand.NewSource(8))
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(hm.MemSize())}
	}
	rep := hm.ExecuteStep(batch)
	// Random balls-in-bins: expected max load ~ ln n / ln ln n ≈ 4; allow
	// generous slack but far below the adversarial n.
	if rep.ModuleContention > 20 {
		t.Errorf("random-traffic max load = %d, suspiciously high", rep.ModuleContention)
	}
}

func TestAdversarialBatchForcesSerialization(t *testing.T) {
	const n = 128
	hm := New(n, Config{Seed: 3})
	batch := AdversarialBatch(hm.Hash(), n, hm.MemSize())
	rep := hm.ExecuteStep(batch)
	// With m = n² cells over n modules, each module has ~n addresses, so
	// the adversary should fill most of the batch with one module's
	// addresses and force ~n phases.
	if rep.Phases < n/2 {
		t.Errorf("adversarial step took only %d phases, want ≥ %d", rep.Phases, n/2)
	}
	if hm.MaxLoadSeen() < n/2 {
		t.Errorf("max load %d, want ≥ %d", hm.MaxLoadSeen(), n/2)
	}
}

func TestCombiningSameAddress(t *testing.T) {
	const n = 64
	hm := New(n, Config{Seed: 1})
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: 7}
	}
	rep := hm.ExecuteStep(batch)
	if rep.Phases != 1 {
		t.Errorf("combined concurrent reads cost %d phases, want 1", rep.Phases)
	}
}

func TestHashDeterministicPerSeed(t *testing.T) {
	h1 := NewHash(64, 9)
	h2 := NewHash(64, 9)
	for a := 0; a < 100; a++ {
		if h1.Module(a) != h2.Module(a) {
			t.Fatal("same seed, different hash")
		}
	}
}

func TestIdleStepFree(t *testing.T) {
	hm := New(4, Config{})
	rep := hm.ExecuteStep(model.NewBatch(4))
	if rep.Time != 0 {
		t.Errorf("idle step charged %d", rep.Time)
	}
}

// TestExecuteStepZeroAllocs: once its scratch has grown, a step of the
// abstract module-load model allocates nothing — on random reads, on the
// adversarial step, and on a mixed step that the EREW check scans.
func TestExecuteStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 256
	hm := New(n, Config{Seed: 5})
	rng := rand.New(rand.NewSource(8))
	random := model.NewBatch(n)
	mixed := model.NewBatch(n)
	for i, a := range rng.Perm(hm.MemSize())[:n] {
		random[i] = model.Request{Proc: i, Op: model.OpRead, Addr: a}
		mixed[i] = random[i]
		if i%3 == 0 {
			mixed[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: a, Value: model.Word(i)}
		}
	}
	for _, c := range []struct {
		name string
		b    model.Batch
	}{{"random", random}, {"mixed", mixed}, {"adversarial", AdversarialBatch(hm.Hash(), n, hm.MemSize())}} {
		if rep := hm.ExecuteStep(c.b); rep.Err != nil {
			t.Fatalf("%s: %v", c.name, rep.Err)
		}
		if avg := testing.AllocsPerRun(20, func() { hm.ExecuteStep(c.b) }); avg != 0 {
			t.Errorf("%s step allocates %.1f/op, want 0", c.name, avg)
		}
	}
}
