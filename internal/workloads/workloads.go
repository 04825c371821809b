// Package workloads provides the library of P-RAM programs used by the
// examples, the integration tests and the benchmark harness: the classical
// shared-memory kernels the P-RAM literature (and the paper's introduction)
// motivates — parallel reduction, prefix sums, broadcast, list ranking by
// pointer jumping, bitonic sorting, matrix–vector products — plus synthetic
// access patterns (permutation, hot-spot, random) that stress the
// simulations' contention handling.
//
// A Workload bundles processor/memory sizing, input setup, the per-
// processor program and a verification oracle, so any workload can be run
// and checked on any model.Backend.
package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/xmath"
)

// Workload is a self-verifying P-RAM program.
type Workload struct {
	Name  string
	Procs int
	Cells int
	Mode  model.Mode // weakest conflict convention the program needs

	// Setup loads the input into shared memory.
	Setup func(b model.Backend)
	// Program returns processor id's code.
	Program func(id int) machine.Program
	// Verify checks the output left in shared memory.
	Verify func(b model.Backend) error
}

// RunOn executes the workload on a backend and verifies the result.
// The backend must have been built with at least w.Procs processors and
// w.Cells cells.
func RunOn(w Workload, b model.Backend) (*machine.RunReport, error) {
	if b.Procs() < w.Procs {
		return nil, fmt.Errorf("workload %s needs %d processors, backend has %d", w.Name, w.Procs, b.Procs())
	}
	if b.MemSize() < w.Cells {
		return nil, fmt.Errorf("workload %s needs %d cells, backend has %d", w.Name, w.Cells, b.MemSize())
	}
	if w.Setup != nil {
		w.Setup(b)
	}
	m := machine.New(b)
	rep := m.RunEach(func(id int) machine.Program {
		if id < w.Procs {
			return w.Program(id)
		}
		return func(*machine.Proc) {} // surplus processors halt immediately
	})
	if err := rep.Err(); err != nil {
		return rep, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if w.Verify != nil {
		if err := w.Verify(b); err != nil {
			return rep, fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return rep, nil
}

// TreeSum reduces n inputs (cells [0,n)) into cell 0 by a balanced binary
// tree: the canonical O(log n) EREW reduction.
func TreeSum(n int, seed int64) Workload {
	input := randWords(n, seed, 1000)
	var want model.Word
	for _, v := range input {
		want += v
	}
	return Workload{
		Name:  fmt.Sprintf("treesum(n=%d)", n),
		Procs: n,
		Cells: n,
		Mode:  model.EREW,
		Setup: func(b model.Backend) { b.LoadCells(0, input) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				for stride := 1; stride < n; stride *= 2 {
					if id%(2*stride) == 0 && id+stride < n {
						a := p.Read(id)
						c := p.Read(id + stride)
						p.Write(id, a+c)
					} else {
						p.Sync()
						p.Sync()
						p.Sync()
					}
				}
			}
		},
		Verify: func(b model.Backend) error {
			if got := b.ReadCell(0); got != want {
				return fmt.Errorf("sum = %d, want %d", got, want)
			}
			return nil
		},
	}
}

// PrefixSum computes inclusive prefix sums of n inputs by Hillis–Steele
// doubling with two buffers: cells [0,n) input/ping, [n,2n) pong. Needs
// CREW (cell i is read by processors i and i+stride in the same step).
func PrefixSum(n int, seed int64) Workload {
	input := randWords(n, seed, 1000)
	want := make([]model.Word, n)
	acc := model.Word(0)
	for i, v := range input {
		acc += v
		want[i] = acc
	}
	rounds := 0
	for s := 1; s < n; s *= 2 {
		rounds++
	}
	return Workload{
		Name:  fmt.Sprintf("prefixsum(n=%d)", n),
		Procs: n,
		Cells: 2 * n,
		Mode:  model.CREW,
		Setup: func(b model.Backend) { b.LoadCells(0, input) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				src, dst := 0, n
				for stride := 1; stride < n; stride *= 2 {
					v := p.Read(src + id)
					if id >= stride {
						v += p.Read(src + id - stride)
					} else {
						p.Sync()
					}
					p.Write(dst+id, v)
					src, dst = dst, src
				}
				// Normalize: result into cells [0,n) if it ended in pong.
				if rounds%2 == 1 {
					v := p.Read(n + id)
					p.Write(id, v)
				}
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < n; i++ {
				if got := b.ReadCell(i); got != want[i] {
					return fmt.Errorf("prefix[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}

// Broadcast distributes the value in cell 0 to cells [0,n) by recursive
// doubling — the EREW way to simulate a concurrent read.
func Broadcast(n int, value model.Word) Workload {
	return Workload{
		Name:  fmt.Sprintf("broadcast(n=%d)", n),
		Procs: n,
		Cells: n,
		Mode:  model.EREW,
		Setup: func(b model.Backend) { b.LoadCells(0, []model.Word{value}) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				for have := 1; have < n; have *= 2 {
					if id >= have && id < 2*have && id < n {
						v := p.Read(id - have)
						p.Write(id, v)
					} else {
						p.Sync()
						p.Sync()
					}
				}
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < n; i++ {
				if got := b.ReadCell(i); got != value {
					return fmt.Errorf("cell %d = %d, want %d", i, got, value)
				}
			}
			return nil
		},
	}
}

// ListRank ranks a random singly-linked list of n nodes by pointer jumping
// (Wyllie): cells [0,n) hold next pointers (self-loop at the tail), cells
// [n,2n) hold the accumulating rank (distance to tail). CREW: converged
// pointers are read concurrently.
func ListRank(n int, seed int64) Workload {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	// perm defines list order: perm[0] is head, perm[n-1] is tail.
	next := make([]model.Word, n)
	wantRank := make([]model.Word, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = model.Word(perm[i+1])
	}
	next[perm[n-1]] = model.Word(perm[n-1]) // tail self-loop
	for i := 0; i < n; i++ {
		wantRank[perm[i]] = model.Word(n - 1 - i)
	}
	initRank := make([]model.Word, n)
	for i := range initRank {
		if next[i] != model.Word(i) {
			initRank[i] = 1
		}
	}
	rounds := 0
	for s := 1; s < n; s *= 2 {
		rounds++
	}
	return Workload{
		Name:  fmt.Sprintf("listrank(n=%d)", n),
		Procs: n,
		Cells: 2 * n,
		Mode:  model.CREW,
		Setup: func(b model.Backend) {
			b.LoadCells(0, next)
			b.LoadCells(n, initRank)
		},
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				for r := 0; r < rounds; r++ {
					nx := p.Read(id)
					rk := p.Read(n + id)
					nrk := p.Read(n + int(nx))
					nnx := p.Read(int(nx))
					if int(nx) != id {
						p.Write(n+id, rk+nrk)
						p.Write(id, nnx)
					} else {
						p.Sync()
						p.Sync()
					}
				}
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < n; i++ {
				if got := b.ReadCell(n + i); got != wantRank[i] {
					return fmt.Errorf("rank[%d] = %d, want %d", i, got, wantRank[i])
				}
			}
			return nil
		},
	}
}

// BitonicSort sorts n random words in cells [0,n) with Batcher's bitonic
// network: O(log²n) compare-exchange rounds, EREW (each round touches
// disjoint pairs, the lower partner doing the work). The network spans n
// rounded up to a power of two, N: it has N processors and N cells, and
// cells [n,N) hold the largest Word, so they sort to the end.
func BitonicSort(n int, seed int64) Workload {
	size := xmath.CeilPow2(n)
	input := randWords(n, seed, 1<<30)
	for len(input) < size {
		input = append(input, math.MaxInt64)
	}
	return Workload{
		Name:  fmt.Sprintf("bitonicsort(n=%d)", n),
		Procs: size,
		Cells: size,
		Mode:  model.EREW,
		Setup: func(b model.Backend) { b.LoadCells(0, input) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				for k := 2; k <= size; k *= 2 {
					for j := k / 2; j > 0; j /= 2 {
						partner := id ^ j
						if partner > id {
							ascending := id&k == 0
							a := p.Read(id)
							c := p.Read(partner)
							if (a > c) == ascending {
								p.Write(id, c)
								p.Write(partner, a)
							} else {
								p.Sync()
								p.Sync()
							}
						} else {
							p.Sync()
							p.Sync()
							p.Sync()
							p.Sync()
						}
					}
				}
			}
		},
		Verify: func(b model.Backend) error {
			prev := b.ReadCell(0)
			for i := 1; i < size; i++ {
				cur := b.ReadCell(i)
				if cur < prev {
					return fmt.Errorf("not sorted at %d: %d > %d", i, prev, cur)
				}
				prev = cur
			}
			return nil
		},
	}
}

// MatVec multiplies a rows×cols matrix by a vector with one processor per
// row — the workload the 2DMOT was originally proposed for (Nath et al.
// 1983). Layout: A row-major at 0, x at rows·cols, y at rows·cols+cols.
// CREW: every processor reads each x[j].
func MatVec(rows, cols int, seed int64) Workload {
	a := randWords(rows*cols, seed, 100)
	x := randWords(cols, seed+1, 100)
	want := make([]model.Word, rows)
	for i := 0; i < rows; i++ {
		var s model.Word
		for j := 0; j < cols; j++ {
			s += a[i*cols+j] * x[j]
		}
		want[i] = s
	}
	xBase := rows * cols
	yBase := xBase + cols
	return Workload{
		Name:  fmt.Sprintf("matvec(%dx%d)", rows, cols),
		Procs: rows,
		Cells: rows*cols + cols + rows,
		Mode:  model.CREW,
		Setup: func(b model.Backend) {
			b.LoadCells(0, a)
			b.LoadCells(xBase, x)
		},
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				var s model.Word
				for j := 0; j < cols; j++ {
					aij := p.Read(id*cols + j)
					xj := p.Read(xBase + j)
					s += aij * xj
				}
				p.Write(yBase+id, s)
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < rows; i++ {
				if got := b.ReadCell(yBase + i); got != want[i] {
					return fmt.Errorf("y[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}

// Permutation routes: processor i reads cell π(i) and writes the value to
// cell n+i. EREW (π is a permutation), the paper's canonical "arbitrary
// P-RAM step".
func Permutation(n int, seed int64) Workload {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	input := randWords(n, seed+7, 1<<20)
	return Workload{
		Name:  fmt.Sprintf("permutation(n=%d)", n),
		Procs: n,
		Cells: 2 * n,
		Mode:  model.EREW,
		Setup: func(b model.Backend) { b.LoadCells(0, input) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				v := p.Read(perm[id])
				p.Write(n+id, v)
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < n; i++ {
				if got := b.ReadCell(n + i); got != input[perm[i]] {
					return fmt.Errorf("out[%d] = %d, want %d", i, got, input[perm[i]])
				}
			}
			return nil
		},
	}
}

// HotSpot makes every processor read cell 0 simultaneously (a concurrent-
// read storm) and then write its own cell. CRCW/CREW stress test for the
// combining logic of the simulations.
func HotSpot(n int) Workload {
	return Workload{
		Name:  fmt.Sprintf("hotspot(n=%d)", n),
		Procs: n,
		Cells: n + 1,
		Mode:  model.CREW,
		Setup: func(b model.Backend) { b.LoadCells(0, []model.Word{123}) },
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				v := p.Read(0)
				p.Write(1+id, v*2)
			}
		},
		Verify: func(b model.Backend) error {
			for i := 0; i < n; i++ {
				if got := b.ReadCell(1 + i); got != 246 {
					return fmt.Errorf("cell %d = %d, want 246", 1+i, got)
				}
			}
			return nil
		},
	}
}

// RandomAccess has each processor perform `rounds` uniformly random reads
// and writes over m cells under CRCW-Priority — the unstructured traffic
// used for backend-equivalence property tests.
func RandomAccess(n, m, rounds int, seed int64) Workload {
	return Workload{
		Name:  fmt.Sprintf("randomaccess(n=%d,m=%d,rounds=%d)", n, m, rounds),
		Procs: n,
		Cells: m,
		Mode:  model.CRCWPriority,
		Program: func(id int) machine.Program {
			return func(p *machine.Proc) {
				rng := rand.New(rand.NewSource(seed + int64(id)*7919))
				for r := 0; r < rounds; r++ {
					if rng.Intn(2) == 0 {
						p.Read(rng.Intn(m))
					} else {
						p.Write(rng.Intn(m), model.Word(rng.Intn(1<<16)))
					}
				}
			}
		},
	}
}

// All returns the standard self-verifying suite at size n (a power of two).
func All(n int, seed int64) []Workload {
	ws := []Workload{
		TreeSum(n, seed),
		PrefixSum(n, seed),
		Broadcast(n, 99),
		ListRank(n, seed),
		BitonicSort(n, seed),
		MatVec(n, 8, seed),
		Permutation(n, seed),
		HotSpot(n),
		OddEvenSort(n, seed),
		Butterfly(n, seed),
		CRCWMax(n, seed),
	}
	if s := isqrt(n); s*s == n {
		ws = append(ws, Transpose(s, seed))
	}
	return ws
}

// isqrt returns floor(sqrt(x)) for small x.
func isqrt(x int) int {
	s := 0
	for (s+1)*(s+1) <= x {
		s++
	}
	return s
}

// randWords returns n deterministic pseudo-random words in [0, limit).
func randWords(n int, seed int64, limit int64) []model.Word {
	rng := rand.New(rand.NewSource(seed))
	out := make([]model.Word, n)
	for i := range out {
		out[i] = model.Word(rng.Int63n(limit))
	}
	return out
}
