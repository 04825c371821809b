// Package lowerbound implements Theorem 1 of the paper: the counting
// argument that lower-bounds the redundancy any P-RAM simulation scheme
// needs on a DMMPC with n processors, M = n^(1+ε) modules and m = n^k
// variables to finish an arbitrary step in time h,
//
//	r = Ω( (k−1)·log n / (ε·log n + log h) ).
//
// The package provides the asymptotic bound, a numeric solver for the
// exact inequality the proof derives, and the constructive adversary the
// proof implies: given any concrete memory map with too little redundancy,
// it finds a set of variables whose copies concentrate in few modules, so
// that a step accessing them is forced to serialize.
package lowerbound

import (
	"math"
	"sort"

	"repro/internal/memmap"
)

// AsymptoticR returns the Θ-form bound (k−1)·log n / (ε·log n + log h).
// For constant k>1, ε>0 and polylog h this is O(1) — the observation that
// makes the paper's constant-redundancy scheme possible.
func AsymptoticR(n int, k, eps float64, h float64) float64 {
	logn := math.Log2(float64(n))
	logh := math.Log2(h)
	den := eps*logn + logh
	if den <= 0 {
		return math.Inf(1)
	}
	return (k - 1) * logn / den
}

// ExactP solves the proof's inequality for the smallest average update
// count p (p ≤ r) consistent with simulating a step in time h:
//
//	p ≥ (log m − log n − 1) / (2·[log(M−2p+1) − log(n/h − 2p)])
//
// by fixed-point iteration (the right side decreases in p). Returns 0 when
// the regime is degenerate (n/h too small for the argument to bite).
func ExactP(n, M int, m float64, h int) float64 {
	q := float64(n)/float64(h) - 1 // module-set size of the counting argument
	if q <= 2 {
		return 0
	}
	num := math.Log2(m) - math.Log2(float64(n)) - 1
	if num <= 0 {
		return 0
	}
	p := 0.5
	for iter := 0; iter < 64; iter++ {
		den := 2 * (math.Log2(float64(M)-2*p+1) - math.Log2(float64(n)/float64(h)-2*p))
		if den <= 0 {
			return math.Inf(1)
		}
		next := num / den
		if next <= p || 2*next >= float64(n)/float64(h)-1 {
			return math.Max(next, p)
		}
		p = next
	}
	return p
}

// Concentration describes the adversarial variable set found against a map.
type Concentration struct {
	Vars    []int // the chosen variables
	Modules int   // distinct modules their copies occupy
	// SerialLower is the forced step time for a machine whose modules
	// serve one access per phase: every chosen variable must receive at
	// least one copy access, so time ≥ Vars/Modules.
	SerialLower float64
}

// FindConcentrated greedily builds the Theorem-1 adversary for a concrete
// map: count variables whose FULL copy sets fall inside a small module
// window, growing the window from the most loaded modules. It returns the
// best (most forcing) concentration over the windows probed.
func FindConcentrated(mp *memmap.Map, maxVars int) Concentration {
	loads := mp.ModuleLoads()
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if loads[order[a]] != loads[order[b]] {
			return loads[order[a]] > loads[order[b]]
		}
		return order[a] < order[b]
	})
	best := Concentration{Modules: len(loads)}
	window := make(map[uint32]bool)
	r := mp.R()
	// Grow the window module by module; after each growth step, collect
	// the variables fully inside it. O(m·r) per probe — probe at powers
	// of two to keep it cheap.
	probeAt := 1
	for wi := 0; wi < len(order); wi++ {
		window[uint32(order[wi])] = true
		if wi+1 != probeAt {
			continue
		}
		probeAt *= 2
		var vars []int
		for v := 0; v < mp.Vars() && len(vars) < maxVars; v++ {
			inside := true
			for j := 0; j < r; j++ {
				if !window[uint32(mp.ModuleOf(v, j))] {
					inside = false
					break
				}
			}
			if inside {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			continue
		}
		force := float64(len(vars)) / float64(len(window))
		if force > best.SerialLower {
			best = Concentration{
				Vars:        vars,
				Modules:     len(window),
				SerialLower: force,
			}
		}
	}
	return best
}
