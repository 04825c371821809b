package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func re(x uint32) Elem { return x % P }

// Field axioms under testing/quick.
func TestAddCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := re(a), re(b), re(c)
		return Add(x, y) == Add(y, x) && Add(Add(x, y), z) == Add(x, Add(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := re(a), re(b), re(c)
		return Mul(x, y) == Mul(y, x) && Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint32) bool {
		x, y, z := re(a), re(b), re(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := re(a), re(b)
		return Sub(Add(x, y), y) == x && Add(x, Neg(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulInverse(t *testing.T) {
	f := func(a uint32) bool {
		x := re(a)
		if x == 0 {
			return true
		}
		return Mul(x, Inv(x)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	for _, a := range []Elem{0, 1, 2, 3, 65536} {
		acc := Elem(1)
		for e := uint64(0); e < 20; e++ {
			if got := Pow(a, e); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, acc)
			}
			acc = Mul(acc, a)
		}
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	f := func(a uint32) bool {
		x := re(a)
		if x == 0 {
			return true
		}
		return Pow(x, P-1) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalPolyHorner(t *testing.T) {
	// p(x) = 7 + 3x + 2x²  at x = 5 → 7 + 15 + 50 = 72
	if got := EvalPoly(Vec{7, 3, 2}, 5); got != 72 {
		t.Errorf("EvalPoly = %d, want 72", got)
	}
}

func TestSolveVandermondeRoundtrip(t *testing.T) {
	// Random polynomial, evaluate at distinct points, recover coefficients.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		b := 1 + rng.Intn(12)
		coef := make(Vec, b)
		for i := range coef {
			coef[i] = Elem(rng.Intn(P))
		}
		xs := make(Vec, b)
		perm := rng.Perm(P - 1)
		for i := range xs {
			xs[i] = Elem(perm[i] + 1)
		}
		ys := make(Vec, b)
		for i := range ys {
			ys[i] = EvalPoly(coef, xs[i])
		}
		got := SolveVandermonde(nil, xs, ys)
		for i := range coef {
			if got[i] != coef[i] {
				t.Fatalf("trial %d: coef[%d] = %d, want %d", trial, i, got[i], coef[i])
			}
		}
	}
}

func TestSolveVandermondeDuplicatePointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate points did not panic")
		}
	}()
	SolveVandermonde(nil, Vec{1, 1}, Vec{2, 3})
}

func TestSolveVandermondeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	SolveVandermonde(nil, Vec{1, 2}, Vec{2})
}
