// Package prom implements the P-ROM of the paper's conclusion: a parallel
// READ-ONLY memory holding the memory map Γ once, shared by all
// processors, instead of each processor storing a private O(m·r·log M)-bit
// look-up table. The conclusion conjectures this "would support
// simultaneous address look-up for all processors, and thus reduce the
// total look-up table size from O(mn·log rm) to O(m·log rm) bits".
//
// The directory spreads the entries Γ(v,·) over the machine's modules
// (entry v at module v mod M). Because the data is read-only there is no
// consistency protocol: lookups for the same variable combine (a broadcast
// up/down the access tree costs nothing extra in the phase model), and the
// only cost is module contention among DISTINCT variables that collide on
// a directory module — one extra bounded phase batch per P-RAM step.
//
// Machine wraps any model.Backend and charges that lookup cost before each
// step, so every simulation in the repository can be run "table-free".
package prom

import (
	"fmt"
	"slices"

	"repro/internal/memmap"
	"repro/internal/model"
)

// Directory models the shared read-only map store.
type Directory struct {
	Vars       int // m
	Redundancy int // r = 2c−1 entries per variable
	Modules    int // M modules the directory is spread over
	BitsPerRef int // bits to name one module (⌈log2 M⌉)
}

// NewDirectory sizes a directory for the given map parameters.
func NewDirectory(p memmap.Params) Directory {
	bits := 1
	for 1<<bits < p.M {
		bits++
	}
	return Directory{Vars: p.Mem, Redundancy: p.R(), Modules: p.M, BitsPerRef: bits}
}

// TotalBits returns the P-ROM's size: m·r·⌈log M⌉ bits, stored once.
func (d Directory) TotalBits() int64 {
	return int64(d.Vars) * int64(d.Redundancy) * int64(d.BitsPerRef)
}

// ReplicatedBits returns the classical cost the conclusion laments: every
// one of the n processors holds a private copy of the whole table.
func (d Directory) ReplicatedBits(n int) int64 { return int64(n) * d.TotalBits() }

// Saving returns the storage ratio ReplicatedBits/TotalBits (= n).
func (d Directory) Saving(n int) float64 {
	return float64(d.ReplicatedBits(n)) / float64(d.TotalBits())
}

// homeModule places directory entry v.
func (d Directory) homeModule(v int) int { return v % d.Modules }

// LookupCost returns the phase cost of resolving the distinct variables of
// one step batch against the directory: concurrent lookups of the same
// variable combine; distinct variables colliding on a module serialize at
// one lookup per module per phase. This is the max directory-module load.
func (d Directory) LookupCost(batch model.Batch) int {
	var buf []int
	return d.lookupCost(batch, &buf)
}

// lookupCost is LookupCost computed in the reusable buffer *buf: the
// batch's distinct variables, sorted, are replaced by their home modules
// and sorted again, so the max load is the longest run of one module.
func (d Directory) lookupCost(batch model.Batch, buf *[]int) int {
	b := (*buf)[:0]
	for _, r := range batch {
		if r.Op != model.OpNone {
			b = append(b, r.Addr)
		}
	}
	slices.Sort(b)
	b = slices.Compact(b)
	for i, v := range b {
		b[i] = d.homeModule(v)
	}
	slices.Sort(b)
	maxLoad := 0
	for i := 0; i < len(b); {
		j := i + 1
		for j < len(b) && b[j] == b[i] {
			j++
		}
		maxLoad = max(maxLoad, j-i)
		i = j
	}
	*buf = b
	return maxLoad
}

// Machine charges P-ROM lookups in front of an inner backend.
type Machine struct {
	inner model.Backend
	dir   Directory

	lookupBuf    []int // lookupCost's buffer, reused across steps
	lookupPhases int64
}

// Wrap builds a table-free machine around inner using the directory sized
// by p (normally inner's own map parameters).
func Wrap(inner model.Backend, p memmap.Params) *Machine {
	return &Machine{inner: inner, dir: NewDirectory(p)}
}

// Name implements model.Backend.
func (m *Machine) Name() string { return m.inner.Name() + "+PROM" }

// MemSize implements model.Backend.
func (m *Machine) MemSize() int { return m.inner.MemSize() }

// Procs implements model.Backend.
func (m *Machine) Procs() int { return m.inner.Procs() }

// Directory returns the P-ROM sizing.
func (m *Machine) Directory() Directory { return m.dir }

// LookupPhases returns the cumulative phases spent on address lookups.
func (m *Machine) LookupPhases() int64 { return m.lookupPhases }

// ExecuteStep implements model.Backend: directory lookup phases are added
// to the inner machine's cost.
func (m *Machine) ExecuteStep(batch model.Batch) model.StepReport {
	lk := m.dir.lookupCost(batch, &m.lookupBuf)
	m.lookupPhases += int64(lk)
	rep := m.inner.ExecuteStep(batch)
	rep.Time += int64(lk)
	rep.Phases += lk
	return rep
}

// ReadCell implements model.Backend.
func (m *Machine) ReadCell(a model.Addr) model.Word { return m.inner.ReadCell(a) }

// LoadCells implements model.Backend.
func (m *Machine) LoadCells(base model.Addr, vals []model.Word) {
	m.inner.LoadCells(base, vals)
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("prom.Machine{%s, dir=%d bits}", m.inner.Name(), m.dir.TotalBits())
}
