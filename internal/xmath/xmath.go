// Package xmath provides the small integer helpers the analytical formulas
// of the paper need (logarithms, ceilings, powers of two, square roots) so
// that the model packages do not each reimplement them.
package xmath

import "math"

// CeilDiv returns ceil(a/b) for b > 0.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("xmath.CeilDiv: divisor must be positive")
	}
	return (a + b - 1) / b
}

// ILog2 returns floor(log2(x)) for x >= 1.
func ILog2(x int) int {
	if x < 1 {
		panic("xmath.ILog2: argument must be >= 1")
	}
	k := 0
	for x > 1 {
		x >>= 1
		k++
	}
	return k
}

// CeilLog2 returns ceil(log2(x)) for x >= 1.
func CeilLog2(x int) int {
	if x < 1 {
		panic("xmath.CeilLog2: argument must be >= 1")
	}
	if x == 1 {
		return 0
	}
	return ILog2(x-1) + 1
}

// CeilPow2 rounds x up to the next power of two (x >= 1).
func CeilPow2(x int) int {
	return 1 << CeilLog2(x)
}

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// ISqrt returns floor(sqrt(x)) for x >= 0.
func ISqrt(x int) int {
	if x < 0 {
		panic("xmath.ISqrt: negative argument")
	}
	r := int(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
