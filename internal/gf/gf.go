// Package gf implements arithmetic in the prime field GF(p) with
// p = 65537 (the Fermat prime 2^16+1), the substrate for Rabin's
// information dispersal algorithm used by the Schuster (1987) alternative
// constant-space P-RAM memory scheme the paper discusses.
//
// Elements are represented as uint32 values in [0, p). The field is large
// enough to address any dispersal width the schemes need (d ≤ p−1 distinct
// evaluation points) while keeping all products inside uint64.
package gf

// P is the field modulus, the Fermat prime 2^16 + 1.
const P = 65537

// Elem is a field element in [0, P).
type Elem = uint32

// Add returns a + b mod P.
func Add(a, b Elem) Elem {
	s := a + b
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns a − b mod P.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns −a mod P.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns a·b mod P.
func Mul(a, b Elem) Elem {
	return Elem(uint64(a) * uint64(b) % P)
}

// Pow returns a^e mod P by binary exponentiation.
func Pow(a Elem, e uint64) Elem {
	r := Elem(1)
	base := a % P
	for e > 0 {
		if e&1 == 1 {
			r = Mul(r, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse of a ≠ 0 (Fermat: a^(P−2)).
func Inv(a Elem) Elem {
	if a%P == 0 {
		panic("gf.Inv: zero has no inverse")
	}
	return Pow(a, P-2)
}

// Div returns a / b mod P for b ≠ 0.
func Div(a, b Elem) Elem { return Mul(a, Inv(b)) }

// Vec is a vector of field elements.
type Vec []Elem

// SolveVandermonde solves the b×b system V·a = y where V[i][j] = x_i^j,
// for pairwise-distinct points x, and appends the coefficient vector a to
// dst. It runs the classical O(b²) Newton divided-difference scheme in
// the appended elements: first the divided differences of y on x, then
// expansion of the Newton form into monomial coefficients. It needs no
// other scratch, so a dst with room for b more elements makes it
// allocation-free. dst's appended elements must not overlap xs or ys.
func SolveVandermonde(dst, xs, ys Vec) Vec {
	b := len(xs)
	if len(ys) != b {
		panic("gf.SolveVandermonde: xs and ys must have equal length")
	}
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			if xs[i] == xs[j] {
				panic("gf.SolveVandermonde: evaluation points must be distinct")
			}
		}
	}
	n := len(dst)
	dst = append(dst, ys...)
	a := dst[n:]
	// Divided differences in place: a[i] = f[x_0..x_i].
	for lvl := 1; lvl < b; lvl++ {
		for i := b - 1; i >= lvl; i-- {
			a[i] = Div(Sub(a[i], a[i-1]), Sub(xs[i], xs[i-lvl]))
		}
	}
	// Expand the Newton form a[0] + (x−x_0)·(a[1] + (x−x_1)·(…)) from the
	// innermost factor out: once step i is done, a[i:] holds the monomial
	// coefficients of a[i] + (x−x_i)·(…), lowest degree first.
	for i := b - 2; i >= 0; i-- {
		for j := i; j < b-1; j++ {
			a[j] = Sub(a[j], Mul(xs[i], a[j+1]))
		}
	}
	return dst
}

// EvalPoly evaluates the polynomial with coefficient vector a (a[0] is the
// constant term) at point x by Horner's rule.
func EvalPoly(a Vec, x Elem) Elem {
	var r Elem
	for i := len(a) - 1; i >= 0; i-- {
		r = Add(Mul(r, x), a[i])
	}
	return r
}
