package lowerbound

import (
	"math"
	"testing"

	"repro/internal/memmap"
)

func TestAsymptoticRConstantWhenFineGrain(t *testing.T) {
	// k=2, ε=1, h=log²n: bound must stay O(1) as n grows.
	prev := math.Inf(1)
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		h := math.Pow(math.Log2(float64(n)), 2)
		r := AsymptoticR(n, 2, 1, h)
		if r > 2 {
			t.Errorf("n=%d: bound %v should be ≤ (k-1)/ε + o(1) = 1 + o(1)", n, r)
		}
		_ = prev
		prev = r
	}
}

func TestAsymptoticRGrowsWhenCoarseGrain(t *testing.T) {
	// ε=0 (MPC): bound becomes (k−1)·log n / log h = Θ(log n / log log n),
	// so it must grow with n.
	small := AsymptoticR(1<<8, 2, 0, math.Pow(8, 2))
	large := AsymptoticR(1<<20, 2, 0, math.Pow(20, 2))
	if large <= small {
		t.Errorf("coarse-grain bound should grow: %v -> %v", small, large)
	}
}

func TestAsymptoticRTrivialCases(t *testing.T) {
	// k=1: one variable per processor, no contention, bound 0.
	if r := AsymptoticR(1024, 1, 0.5, 100); r != 0 {
		t.Errorf("k=1 bound = %v, want 0", r)
	}
	// Degenerate denominator.
	if r := AsymptoticR(1024, 2, 0, 1); !math.IsInf(r, 1) {
		t.Errorf("h=1, eps=0 should blow up, got %v", r)
	}
}

func TestExactPPositiveInCoarseRegime(t *testing.T) {
	// MPC regime: M=n, m=n², h=16 — the counting argument must force p>1.
	n := 1 << 12
	p := ExactP(n, n, float64(n)*float64(n), 16)
	if p <= 1 {
		t.Errorf("coarse-grain exact bound p = %v, want > 1", p)
	}
}

func TestExactPVanishesFineGrain(t *testing.T) {
	// Fine grain: M = n^2 modules. The bound should be ≤ a small constant.
	n := 1 << 10
	p := ExactP(n, n*n, float64(n)*float64(n), 16)
	if p > 3 {
		t.Errorf("fine-grain exact bound p = %v, want small constant", p)
	}
}

func TestExactPDegenerate(t *testing.T) {
	if p := ExactP(16, 16, 256, 16); p != 0 {
		t.Errorf("degenerate n/h: p = %v, want 0", p)
	}
	if p := ExactP(1024, 1024, float64(1024), 4); p != 0 {
		t.Errorf("m = n: p = %v, want 0 (log m - log n - 1 < 0)", p)
	}
}

func TestFindConcentratedOnCorruptMap(t *testing.T) {
	// A map squeezed into r modules concentrates everything: the adversary
	// must find a set forcing ~m/r-ish serialization.
	p := memmap.Params{N: 128, M: 512, Mem: 1024, K: 2, Eps: 1, B: 4, C: 2}
	mp := memmap.GenerateCorrupt(p, p.R(), 7)
	conc := FindConcentrated(mp, 128)
	if len(conc.Vars) == 0 {
		t.Fatal("adversary found nothing on a fully concentrated map")
	}
	if conc.SerialLower < 8 {
		t.Errorf("forced serialization %v, want ≥ 8 on a corrupt map", conc.SerialLower)
	}
}

func TestFindConcentratedOnHealthyMapIsWeak(t *testing.T) {
	// Against a Lemma-2 map the same adversary should gain little: the
	// expansion property spreads every variable set.
	p := memmap.LemmaTwo(128, 2, 1)
	mp := memmap.Generate(p, 7)
	conc := FindConcentrated(mp, 128)
	if conc.SerialLower > 4 {
		t.Errorf("adversary forced %v serialization on a healthy map", conc.SerialLower)
	}
}

// TestAsymptoticRShape: at h = log²n the bound rises with k and falls
// with ε.
func TestAsymptoticRShape(t *testing.T) {
	const n = 1024
	h := math.Pow(math.Log2(n), 2)
	if AsymptoticR(n, 3, 0.5, h) <= AsymptoticR(n, 2, 0.5, h) {
		t.Error("bound should grow with k")
	}
	if AsymptoticR(n, 2, 1, h) >= AsymptoticR(n, 2, 0.5, h) {
		t.Error("bound should shrink with ε")
	}
}
