// Package ideal implements the abstract P-RAM itself: n processors sharing
// an m-cell memory with unit access time (Fortune & Wyllie 1978). It is the
// reference machine every simulation in this repository is measured against,
// both for semantics (the backend-equivalence property tests) and for cost
// (its step time is the constant 1 that the simulations pay polylog factors
// to emulate).
package ideal

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// PRAM is the ideal shared-memory machine.
type PRAM struct {
	n    int
	mode model.Mode
	mem  []model.Word

	steps   int64        // number of executed steps, for reports
	vals    []model.Word // reusable StepReport.Values buffer
	addrs   []model.Addr // reusable contention-count scratch
	checker model.ConflictChecker
}

// New returns an ideal P-RAM with n processors and m shared cells operating
// under the given conflict mode.
func New(n, m int, mode model.Mode) *PRAM {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("ideal.New: need n, m > 0 (got n=%d m=%d)", n, m))
	}
	return &PRAM{n: n, mode: mode, mem: make([]model.Word, m)}
}

// Name implements model.Backend.
func (p *PRAM) Name() string { return "ideal-PRAM(" + p.mode.String() + ")" }

// MemSize implements model.Backend.
func (p *PRAM) MemSize() int { return len(p.mem) }

// Procs implements model.Backend.
func (p *PRAM) Procs() int { return p.n }

// Mode returns the conflict convention the machine enforces.
func (p *PRAM) Mode() model.Mode { return p.mode }

// Steps returns the number of steps executed so far.
func (p *PRAM) Steps() int64 { return p.steps }

// ExecuteStep implements model.Backend. On the ideal P-RAM every step costs
// exactly one time unit regardless of the access pattern.
func (p *PRAM) ExecuteStep(batch model.Batch) model.StepReport {
	vals, err := p.checker.ResolveStepInto(p.vals, p.mem, batch, p.mode)
	p.vals = vals
	p.steps++
	contention := p.maxCellContention(batch)
	return model.StepReport{
		Values:           vals,
		Time:             1,
		CopyAccesses:     int64(batch.Active()),
		ModuleContention: contention,
		Err:              err,
	}
}

// ReadCell implements model.Backend.
func (p *PRAM) ReadCell(a model.Addr) model.Word { return p.mem[a] }

// LoadCells implements model.Backend.
func (p *PRAM) LoadCells(base model.Addr, vals []model.Word) {
	copy(p.mem[base:], vals)
}

// maxCellContention reports the largest number of requests aimed at a single
// cell, a useful diagnostic even though the ideal machine does not charge
// for it. It counts by sorting a reusable address scratch, keeping the step
// loop allocation-free.
func (p *PRAM) maxCellContention(batch model.Batch) int {
	addrs := p.addrs[:0]
	for _, r := range batch {
		if r.Op != model.OpNone {
			addrs = append(addrs, r.Addr)
		}
	}
	p.addrs = addrs
	slices.Sort(addrs)
	best, run := 0, 0
	for i, a := range addrs {
		if i == 0 || a != addrs[i-1] {
			run = 0
		}
		run++
		if run > best {
			best = run
		}
	}
	return best
}
