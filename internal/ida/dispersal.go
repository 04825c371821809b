// Package ida implements Rabin's information dispersal algorithm (JACM
// 1989) and, on top of it, the Schuster (1987) alternative the paper
// discusses in Section 1: a P-RAM shared memory that achieves constant
// STORAGE blowup (d/b copies-worth of space) with redundancy-1 semantics,
// at the price of touching Θ(b) = Θ(log n) field elements per variable
// access — the trade-off the paper's constant-redundancy scheme avoids.
//
// A block of b field elements is recoded into d ≥ b shares — evaluations at
// d fixed distinct points of the polynomial whose coefficients are the
// block — such that ANY b shares recover the block by interpolation.
package ida

import (
	"fmt"
	"slices"

	"repro/internal/gf"
)

// Dispersal fixes the (b, d) recoding of Rabin's IDA.
type Dispersal struct {
	b, d   int
	points gf.Vec // d distinct nonzero evaluation points
}

// NewDispersal returns a b-of-d dispersal (1 ≤ b ≤ d < gf.P).
func NewDispersal(b, d int) *Dispersal {
	if b < 1 || d < b || d >= gf.P {
		panic(fmt.Sprintf("ida.NewDispersal: need 1 <= b <= d < %d (got b=%d d=%d)", gf.P, b, d))
	}
	pts := make(gf.Vec, d)
	for i := range pts {
		pts[i] = gf.Elem(i + 1)
	}
	return &Dispersal{b: b, d: d, points: pts}
}

// B returns the block length (shares needed to recover).
func (dp *Dispersal) B() int { return dp.b }

// D returns the share count.
func (dp *Dispersal) D() int { return dp.d }

// Blowup returns the storage expansion factor d/b.
func (dp *Dispersal) Blowup() float64 { return float64(dp.d) / float64(dp.b) }

// Encode appends the d shares of a block of b elements to dst.
// Cost: O(b·d) field operations.
func (dp *Dispersal) Encode(dst, block gf.Vec) gf.Vec {
	if len(block) != dp.b {
		panic(fmt.Sprintf("ida.Encode: block length %d, want %d", len(block), dp.b))
	}
	for _, x := range dp.points {
		dst = append(dst, gf.EvalPoly(block, x))
	}
	return dst
}

// Decode appends to dst the block recovered from any b shares, given
// their indices in [0, d). It keeps the shares' evaluation points in
// dst's spare capacity past the block, so a dst reused from an earlier
// Decode of the same dispersal makes the call allocation-free. Cost:
// O(b²) field operations (Newton interpolation; Rabin's FFT-point variant
// reaches O(b log b), an efficiency — not correctness — refinement).
func (dp *Dispersal) Decode(dst gf.Vec, idxs []int, shares gf.Vec) gf.Vec {
	if len(idxs) != dp.b || len(shares) != dp.b {
		panic(fmt.Sprintf("ida.Decode: need exactly b=%d shares (got %d idxs, %d shares)",
			dp.b, len(idxs), len(shares)))
	}
	n := len(dst)
	dst = slices.Grow(dst, 2*dp.b)
	xs := dst[n+dp.b : n+2*dp.b]
	for i, ix := range idxs {
		if ix < 0 || ix >= dp.d {
			panic(fmt.Sprintf("ida.Decode: share index %d out of [0,%d)", ix, dp.d))
		}
		xs[i] = dp.points[ix]
	}
	return gf.SolveVandermonde(dst, xs, shares)
}

// FieldOpsEncode returns the field-operation count of one Encode, the unit
// of the scheme's per-access work accounting.
func (dp *Dispersal) FieldOpsEncode() int64 { return int64(dp.b) * int64(dp.d) * 2 }

// FieldOpsDecode returns the field-operation count of one Decode.
func (dp *Dispersal) FieldOpsDecode() int64 { return 3 * int64(dp.b) * int64(dp.b) }
