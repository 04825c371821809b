package workloads

import (
	"slices"
	"testing"

	"repro/internal/ideal"
	"repro/internal/model"
)

// idealFor builds an ideal P-RAM big enough for w, in w's conflict mode.
func idealFor(w Workload) model.Backend {
	return ideal.New(w.Procs, w.Cells, w.Mode)
}

func TestAllWorkloadsVerifyOnIdeal(t *testing.T) {
	for _, w := range All(32, 42) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := RunOn(w, idealFor(w))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Steps == 0 {
				t.Error("no steps executed")
			}
		})
	}
}

func TestWorkloadsRespectDeclaredMode(t *testing.T) {
	// Running each workload under its own declared (weakest) mode must not
	// produce conflict violations; that is what Mode documents.
	for _, w := range All(16, 7) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep, err := RunOn(w, idealFor(w))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("declared mode %v violated: %v", w.Mode, rep.Violations[0])
			}
		})
	}
}

func TestTreeSumSteps(t *testing.T) {
	w := TreeSum(64, 1)
	rep, err := RunOn(w, idealFor(w))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 3*6 { // log2(64) rounds × 3 steps
		t.Errorf("steps = %d, want 18", rep.Steps)
	}
}

func TestPrefixSumNonPowerSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 33} {
		w := PrefixSum(n, 3)
		if _, err := RunOn(w, idealFor(w)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestBitonicSortSortsAdversarialInput(t *testing.T) {
	// Descending input is the classical worst case for partially verified
	// sorters.
	w := BitonicSort(32, 5)
	desc := make([]model.Word, 32)
	for i := range desc {
		desc[i] = model.Word(32 - i)
	}
	w.Setup = func(b model.Backend) { b.LoadCells(0, desc) }
	if _, err := RunOn(w, idealFor(w)); err != nil {
		t.Fatal(err)
	}
}

// TestBitonicSortNonPowerSizes: the network is padded to a power of two
// and the n inputs come out sorted ahead of the padding.
func TestBitonicSortNonPowerSizes(t *testing.T) {
	for _, n := range []int{1, 3, 5, 12, 17} {
		w := BitonicSort(n, 3)
		b := idealFor(w)
		if _, err := RunOn(w, b); err != nil {
			t.Errorf("n=%d: %v", n, err)
			continue
		}
		for i, want := range slices.Sorted(slices.Values(randWords(n, 3, 1<<30))) {
			if got := b.ReadCell(i); got != want {
				t.Errorf("n=%d: cell %d = %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestListRankSmallSizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		w := ListRank(n, 11)
		if _, err := RunOn(w, idealFor(w)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestMatVecRectangular(t *testing.T) {
	w := MatVec(8, 16, 2)
	if _, err := RunOn(w, idealFor(w)); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnRejectsUndersizedBackend(t *testing.T) {
	w := TreeSum(32, 1)
	if _, err := RunOn(w, ideal.New(4, 1024, model.EREW)); err == nil {
		t.Error("undersized processor count accepted")
	}
	if _, err := RunOn(w, ideal.New(32, 4, model.EREW)); err == nil {
		t.Error("undersized memory accepted")
	}
}

func TestVerifyCatchesWrongOutput(t *testing.T) {
	// Run the real program, then corrupt memory and re-verify: the oracle
	// must notice.
	w := Broadcast(8, 55)
	b := idealFor(w)
	if _, err := RunOn(w, b); err != nil {
		t.Fatal(err)
	}
	b.LoadCells(3, []model.Word{0})
	if err := w.Verify(b); err == nil {
		t.Error("verification passed on corrupted memory")
	}
}

func TestRandomAccessRuns(t *testing.T) {
	w := RandomAccess(8, 64, 5, 1)
	rep, err := RunOn(w, idealFor(w))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 5 {
		t.Errorf("steps = %d, want 5", rep.Steps)
	}
}
