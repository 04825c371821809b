// Package pramsim is the public API of the repository: deterministic P-RAM
// simulation with constant redundancy (Hornick & Preparata, SPAA 1989 /
// Information and Computation 92:81–96, 1991), together with every machine
// model the paper defines or compares against.
//
// A P-RAM program is an ordinary Go function run once per processor, each
// processor a coroutine on the goroutine that called Run; each call of the
// three primitives Read, Write and Sync is one P-RAM step. Write and Sync
// are queued without leaving the processor's code, which is resumed only
// to take a Read's value (or when its short action queue is full), so a
// processor's local computation may run ahead of the steps that execute
// its queued actions. The same program runs unchanged on any Backend:
//
//	ideal   — the abstract P-RAM itself (unit-time steps)
//	MPC     — Upfal–Wigderson '87 majority rule, M = n, r = Θ(log m)
//	DMMPC   — the paper's Theorem 2: M = n^(1+ε), r = Θ(1), O(log n) phases
//	MOT2D   — the paper's Theorem 3: √M×√M mesh of trees, modules at the
//	          leaves, r = Θ(1), O(log²n/log log n) network cycles
//	Luccio  — Luccio et al. '90 mesh of trees, modules at the roots,
//	          r = Θ(log m) (the baseline Theorem 3 improves on)
//	Schuster— Rabin-IDA dispersed memory, constant SPACE blowup,
//	          Θ(log n) work per access
//	Hashed  — probabilistic universal-hashing baseline, r = 1, fast on
//	          random traffic, Θ(n) worst case
//
// Quickstart:
//
//	b := pramsim.NewMOT2D(64, pramsim.MOTConfig{})
//	rep := pramsim.Run(b, func(p *pramsim.Proc) {
//	    v := p.Read(p.ID())
//	    p.Write(p.ID()+64, v*2)
//	})
//	fmt.Println(rep.SimTime, "network cycles")
//
// The mesh-of-trees machines route each phase in one serial pass that
// grants a packet alone on its trees and module in closed form and walks
// only the rest hop by hop (see repro/internal/mot); MOTConfig.Parallelism
// is ignored.
package pramsim

import (
	"strings"

	"repro/internal/core"
	"repro/internal/hashsim"
	"repro/internal/ida"
	"repro/internal/ideal"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpc"
	"repro/internal/workloads"
)

// Core vocabulary, re-exported from the internal model.
type (
	// Word is the unit of shared memory (64-bit).
	Word = model.Word
	// Addr indexes the shared address space.
	Addr = model.Addr
	// Mode is the P-RAM conflict convention.
	Mode = model.Mode
	// Backend is any machine that can execute P-RAM steps.
	Backend = model.Backend
	// Batch is one P-RAM step's worth of requests (for direct step
	// driving; most users run Programs instead).
	Batch = model.Batch
	// Request is one processor's action in a Batch.
	Request = model.Request
	// StepReport is the cost report of one executed step.
	StepReport = model.StepReport
)

// Conflict conventions.
const (
	EREW          = model.EREW
	CREW          = model.CREW
	CRCWPriority  = model.CRCWPriority
	CRCWCommon    = model.CRCWCommon
	CRCWArbitrary = model.CRCWArbitrary
)

// Program/processor surface, re-exported from the execution harness.
type (
	// Program is the per-processor code of a P-RAM program.
	Program = machine.Program
	// Proc is a running processor's handle (ID, N, Read, Write, Sync).
	Proc = machine.Proc
	// RunReport aggregates the simulated cost of a full program run.
	RunReport = machine.RunReport
)

// Machine configurations.
type (
	// MPCConfig tunes the Upfal–Wigderson MPC baseline.
	MPCConfig = mpc.Config
	// DMMPCConfig tunes the paper's Theorem 2 machine.
	DMMPCConfig = core.Config
	// MOTConfig tunes the mesh-of-trees machines (Theorem 3 and the
	// Luccio et al. baseline).
	MOTConfig = core.MOTConfig
	// SchusterConfig tunes the IDA-based memory.
	SchusterConfig = ida.Config
	// HashedConfig tunes the probabilistic baseline.
	HashedConfig = hashsim.Config
)

// Workload is a self-verifying P-RAM program with sizing and an oracle.
type Workload = workloads.Workload

// NewIdeal returns the abstract P-RAM: n processors, m cells, unit-time
// steps under the given conflict mode.
func NewIdeal(n, m int, mode Mode) Backend { return ideal.New(n, m, mode) }

// NewMPC returns the Upfal–Wigderson MPC baseline (M = n modules,
// r = Θ(log m) copies).
func NewMPC(n int, cfg MPCConfig) Backend { return mpc.New(n, cfg) }

// NewDMMPC returns the paper's Theorem 2 machine: M = n^(1+ε) modules on a
// complete bipartite interconnect, constant redundancy, O(log n) phases
// per step.
func NewDMMPC(n int, cfg DMMPCConfig) Backend { return core.NewDMMPC(n, cfg) }

// NewMOT2D returns the paper's Theorem 3 machine: a mesh of trees with
// memory modules at the leaves, constant redundancy,
// O(log²n/log log n)-cycle steps.
func NewMOT2D(n int, cfg MOTConfig) Backend { return core.NewMOT2D(n, cfg) }

// NewLuccio returns the Luccio et al. (1990) baseline: mesh of trees with
// modules at the root processors, Θ(log m) redundancy.
func NewLuccio(n int, cfg MOTConfig) Backend { return core.NewLuccio(n, cfg) }

// NewSchuster returns the Rabin-IDA memory of Schuster (1987): constant
// storage blowup, Θ(log n) field work per access.
func NewSchuster(n int, cfg SchusterConfig) Backend { return ida.NewMemory(n, cfg) }

// NewHashed returns the probabilistic universal-hashing baseline.
func NewHashed(n int, cfg HashedConfig) Backend { return hashsim.New(n, cfg) }

// MachineEntry is one row of the facade's machine table: a name and a
// constructor sized from a processor count, a cell count, a conflict mode
// and a map seed. The quorum machines (mpc, dmmpc, mot2d, luccio) size
// their memory from the processor count and ignore cells, the ideal P-RAM
// ignores the seed, and seed 0 selects each machine's default.
type MachineEntry struct {
	Name string
	New  func(procs, cells int, mode Mode, seed int64) Backend
}

// Machines is the table of the seven facade machines, in the order the
// command-line tools list them.
var Machines = []MachineEntry{
	{"ideal", func(n, m int, mode Mode, _ int64) Backend { return NewIdeal(n, m, mode) }},
	{"mpc", func(n, _ int, mode Mode, seed int64) Backend {
		return NewMPC(n, MPCConfig{Mode: mode, Seed: seed})
	}},
	{"dmmpc", func(n, _ int, mode Mode, seed int64) Backend {
		return NewDMMPC(n, DMMPCConfig{Mode: mode, Seed: seed})
	}},
	{"mot2d", func(n, _ int, mode Mode, seed int64) Backend {
		return NewMOT2D(n, MOTConfig{Mode: mode, Seed: seed})
	}},
	{"luccio", func(n, _ int, mode Mode, seed int64) Backend {
		return NewLuccio(n, MOTConfig{Mode: mode, Seed: seed})
	}},
	{"schuster", func(n, m int, mode Mode, seed int64) Backend {
		return NewSchuster(n, SchusterConfig{MemCells: m, Mode: mode, Seed: seed})
	}},
	{"hashed", func(n, m int, mode Mode, seed int64) Backend {
		return NewHashed(n, HashedConfig{MemCells: m, Mode: mode, Seed: seed})
	}},
}

// LookupMachine returns the Machines entry whose name is name in any case.
func LookupMachine(name string) (MachineEntry, bool) {
	name = strings.ToLower(name)
	for _, m := range Machines {
		if m.Name == name {
			return m, true
		}
	}
	return MachineEntry{}, false
}

// Run executes program on every processor of b and blocks until all halt.
func Run(b Backend, program Program) *RunReport {
	return machine.New(b).Run(program)
}

// RunEach executes a per-processor program selected by pick(id).
func RunEach(b Backend, pick func(id int) Program) *RunReport {
	return machine.New(b).RunEach(pick)
}

// RunWorkload executes a self-verifying workload from the standard library
// of P-RAM kernels (see package repro/internal/workloads for constructors).
func RunWorkload(w Workload, b Backend) (*RunReport, error) {
	return workloads.RunOn(w, b)
}
