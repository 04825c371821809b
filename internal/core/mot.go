package core

import (
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// MOTConfig tunes construction of the mesh-of-trees machines.
type MOTConfig struct {
	// K is the memory-size exponent m = n^K (default 2).
	K float64
	// Delta sets the physical module count M = n^(1+Delta) of the
	// Theorem 3 machine (default 2, i.e. a grid of side n^1.5). Must be
	// ≥ 1 so the n processors fit on the grid's tree roots.
	Delta float64
	// Mode is the P-RAM conflict convention. The zero value is EREW.
	Mode model.Mode
	// Seed draws the memory map (default 1).
	Seed int64
	// Policy is the tree-edge contention rule (default DropOnCollision,
	// the paper's routing).
	Policy mot.Policy
	// DualRail enables the simultaneous row+column access of Theorem 3's
	// closing remark: the grid's rows become a second set of banks and the
	// redundancy halves.
	DualRail bool
	// TwoStage selects the faithful UW'87 two-stage schedule with the
	// stage-2 module queues served at O(log n) per phase — the pipelining
	// Luccio et al. (1990) and Theorem 3 use.
	TwoStage bool
	// Parallelism is ignored: the mesh router is one serial pass. The
	// field remains because cmd/prambench, which changes only with the
	// benchmark, still sets it.
	Parallelism int
}

// spec is the single-machine Spec of a mesh constructor.
func (c MOTConfig) spec(kind Kind, n int) Spec {
	return Spec{Kind: kind, Lanes: 1, Procs: n, Mode: c.Mode, Seed: c.Seed, KExp: c.K, Gran: c.Delta,
		Policy: c.Policy, DualRail: c.DualRail, TwoStage: c.TwoStage}
}

// MOT2D is the Theorem 3 machine: a √M × √M two-dimensional mesh of trees
// with the memory modules at the leaves and the n processors at the tree
// roots, running the constant-redundancy majority-rule simulation.
type MOT2D struct {
	*quorum.Machine
	P    memmap.Params
	Side int
	Net  *mot.Network
}

// NewMOT2D builds the paper's DMBDN machine (Section 3, Fig. 8). With
// cfg.DualRail it applies the proof's closing remark — rows and columns
// both serve as banks — halving the redundancy. It panics on an
// infeasible parameter point; Spec.Build reports it as an error.
func NewMOT2D(n int, cfg MOTConfig) *MOT2D {
	b := mustBuild(cfg.spec(KindMOT2D, n))
	return &MOT2D{Machine: b.Machine, P: b.Params, Side: b.Side, Net: b.Machine.Interconnect().(*mot.Network)}
}

// Luccio is the baseline 2DMOT deployment of Luccio, Pietracaprina & Pucci
// (1990): processors AND memory modules at the coalesced tree roots, the
// mesh acting purely as a switching fabric. Because the module count stays
// M = n (coarse granularity), the memory map must fall back to Lemma 1 and
// the redundancy grows as Θ(log m) — the cost the paper's leaf deployment
// removes.
type Luccio struct {
	*quorum.Machine
	P    memmap.Params
	Side int
	Net  *mot.Network
}

// NewLuccio builds the baseline machine on an n×n grid (n rounded up to a
// power of two).
func NewLuccio(n int, cfg MOTConfig) *Luccio {
	b := mustBuild(cfg.spec(KindLuccio, n))
	return &Luccio{Machine: b.Machine, P: b.Params, Side: b.Side, Net: b.Machine.Interconnect().(*mot.Network)}
}
