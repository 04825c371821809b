package core

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/xmath"
)

// Kind selects a machine family.
type Kind uint8

const (
	// KindDMMPC is the Theorem 2 machine (complete bipartite K(n,M)).
	KindDMMPC Kind = iota
	// KindMOT2D is the Theorem 3 machine (2D mesh of trees, modules at
	// the leaves).
	KindMOT2D
	// KindLuccio is the Luccio'90 baseline (modules at the tree roots,
	// Lemma 1 redundancy). Single-lane only.
	KindLuccio
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDMMPC:
		return "dmmpc"
	case KindMOT2D:
		return "mot2d"
	case KindLuccio:
		return "luccio"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a CLI spelling to its kind. The empty string selects the
// DMMPC, so an unset flag means the complete bipartite fabric.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "dmmpc", "bipartite", "complete", "e3":
		return KindDMMPC, nil
	case "mot2d", "mot", "mesh", "e5":
		return KindMOT2D, nil
	case "luccio":
		return KindLuccio, nil
	}
	return 0, fmt.Errorf("core: unknown machine kind %q (want dmmpc, mot2d or luccio)", s)
}

// Spec is one parameter point of a quorum machine: the paper's (n, k, ε)
// on K(n, n^(1+ε)) or (n, k, δ) on a √M × √M mesh, plus the deployment
// shape and protocol knobs. Two Builds of one Spec construct bit-for-bit
// interchangeable machines; a trace header persists every field.
type Spec struct {
	// Kind is the machine family.
	Kind Kind
	// Lanes is the workload-shard count K: the parameter point is derived
	// at Lanes·Procs processors and the map banded Lanes ways. Build makes
	// a single Machine when Lanes == 1 and a Lanes-engine Pool otherwise
	// (0 → 1; negative is an error).
	Lanes int
	// Procs is the per-lane processor count n.
	Procs int
	// Mode is the P-RAM conflict convention. The zero value is EREW.
	Mode model.Mode
	// Seed draws the memory map (0 → 1).
	Seed int64
	// KExp is the memory-size exponent: m = n^KExp (0 → 2).
	KExp float64
	// Gran is the granularity exponent: ε for the DMMPC (M = n^(1+ε);
	// 0 → 1), δ for the 2DMOT (side ≈ n^((1+δ)/2); 0 → 2). Ignored by
	// Luccio.
	Gran float64
	// DualRail enables the 2DMOT's row+column banks (Theorem 3's closing
	// remark: the redundancy halves).
	DualRail bool
	// Policy is the 2DMOT tree-edge contention rule.
	Policy mot.Policy
	// TwoStage selects the faithful UW'87 two-stage schedule, with
	// Stage1Phases/Stage2Bandwidth overriding its defaults when > 0.
	TwoStage        bool
	Stage1Phases    int
	Stage2Bandwidth int
}

// normalize resolves defaulted fields, so a persisted spec pins them
// explicitly.
func (s *Spec) normalize() {
	if s.Lanes == 0 {
		s.Lanes = 1
	}
	if s.KExp == 0 {
		s.KExp = 2
	}
	if s.Gran == 0 {
		if s.Kind == KindDMMPC {
			s.Gran = 1
		} else {
			s.Gran = 2
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// String summarizes the spec.
func (s Spec) String() string {
	str := fmt.Sprintf("%s n=%d K=%d mode=%s seed=%d k=%.3g gran=%.3g",
		s.Kind, s.Procs, s.Lanes, s.Mode, s.Seed, s.KExp, s.Gran)
	if s.DualRail {
		str += " dual-rail"
	}
	if s.TwoStage {
		str += " two-stage"
	}
	if s.Policy == mot.QueueOnCollision {
		str += " queue"
	}
	return str
}

// Built is what a Spec constructs: a single Machine or a Pool, plus the
// shared store and the derived parameters. Its methods are the one place
// that tells the two apart: they step a round and attach a step sink
// either way.
type Built struct {
	Spec    Spec // normalized
	Machine *quorum.Machine
	Pool    *quorum.Pool
	Store   *quorum.Store
	Params  memmap.Params
	Side    int // grid side (0 for the bipartite machines)

	one [1]model.StepReport // the single machine's round (ExecuteSteps)
}

// Lane returns the machine serving one lane (the single machine, or the
// pool's shard k).
func (b *Built) Lane(k int) *quorum.Machine {
	if b.Pool != nil {
		return b.Pool.Machine(k)
	}
	return b.Machine
}

// ExecuteSteps runs one round of per-lane batches, batches[k] on lane k,
// and returns the lanes' reports: the pool's round (Pool.ExecuteSteps), or
// the single machine's one step. The reports alias machine scratch until
// the next round.
func (b *Built) ExecuteSteps(batches []model.Batch) []model.StepReport {
	if b.Pool != nil {
		return b.Pool.ExecuteSteps(batches)
	}
	if len(batches) != 1 {
		panic(fmt.Sprintf("core: %d batches for one machine", len(batches)))
	}
	b.one[0] = b.Machine.ExecuteStep(batches[0])
	return b.one[:]
}

// SetStepSink attaches sink to every lane (nil detaches): the pool's
// shards as lanes 0…K−1 (Pool.SetStepSink), or the single machine as
// lane 0.
func (b *Built) SetStepSink(sink quorum.StepSink) {
	if b.Pool != nil {
		b.Pool.SetStepSink(sink)
		return
	}
	b.Machine.SetStepSink(sink, 0)
}

// Build constructs the spec's machines from scratch: a single Machine
// when Lanes == 1, a Lanes-engine Pool otherwise. Invalid and infeasible
// parameter points (including ones a corrupted trace header names) are
// errors, never panics.
func (s Spec) Build() (*Built, error) {
	s.normalize()
	if s.Lanes == 1 {
		return s.build(0)
	}
	return s.build(s.Lanes)
}

// BuildPool constructs a k-engine Pool over the spec's Lanes-banded map (0
// → 1; negative is an error), even when k or Lanes is 1. The engine count
// is independent of the banding: a deployment whose lanes are tenants can
// run them on fewer or more engines, and Pool.Resize changes k later with
// the same interconnect wiring.
func (s Spec) BuildPool(k int) (*Built, error) {
	s.normalize()
	if k < 0 {
		return nil, fmt.Errorf("core: engine count %d < 0", k)
	}
	return s.build(max(k, 1))
}

// maxTableEntries bounds what one build allocates, so a hostile trace
// header or flag fails before the map is drawn instead of exhausting the
// host. It counts table entries: the m·r copies of the map and the store
// (about 20 bytes each), each engine's Procs·r copy-access scratch, and a
// pool's per-module census (M entries). 2^26 entries is about 1.3 GiB,
// 7× the largest point the repository builds: the n = 4096 mesh of E5
// and E13 needs 9.3M entries, Lemma 2 at n = 1024 7.3M (8.4M as a pool).
const maxTableEntries = 1 << 26

// build derives the parameter point, the map, the store and the per-lane
// interconnects of a normalized spec, and wires a single Machine
// (engines == 0) or an engines-shard Pool.
func (s Spec) build(engines int) (b *Built, err error) {
	if s.Procs < 1 {
		return nil, fmt.Errorf("core: Procs=%d < 1", s.Procs)
	}
	if s.Lanes < 1 {
		return nil, fmt.Errorf("core: Lanes=%d < 0", s.Lanes)
	}
	if s.Mode > model.CRCWArbitrary {
		return nil, fmt.Errorf("core: unknown conflict mode %d", s.Mode)
	}
	if s.Policy > mot.QueueOnCollision {
		return nil, fmt.Errorf("core: unknown routing policy %d", s.Policy)
	}
	if s.Kind > KindLuccio {
		return nil, fmt.Errorf("core: unknown machine kind %d", s.Kind)
	}
	if s.Kind == KindLuccio && (s.Lanes != 1 || engines != 0) {
		return nil, fmt.Errorf("core: the Luccio baseline is a single machine, not %d lanes on %d pool engines", s.Lanes, engines)
	}
	// The memmap derivations and generators, the mesh and the engines
	// panic on infeasible points (ε ≤ 0, δ < 1, bands below the
	// redundancy, meshes past mot.MaxSide, redundancy past the engine's
	// copy bitmask); every caller gets an error instead.
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("core: infeasible machine parameters: %v", r)
		}
	}()
	n := s.Procs * s.Lanes
	var p memmap.Params
	var side int
	var newNet func(int) quorum.Interconnect
	switch s.Kind {
	case KindDMMPC:
		p = memmap.LemmaTwo(n, s.KExp, s.Gran)
		newNet = func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() }
	case KindMOT2D:
		if s.DualRail {
			p, side = memmap.TheoremThreeDual(n, s.KExp, s.Gran)
		} else {
			p, side = memmap.TheoremThree(n, s.KExp, s.Gran)
		}
		cfg := mot.Config{Policy: s.Policy, DualRail: s.DualRail}
		newNet = func(int) quorum.Interconnect { return mot.NewNetwork(side, mot.ModulesAtLeaves, cfg) }
	case KindLuccio:
		side = xmath.CeilPow2(n)
		p = memmap.LemmaOne(n, s.KExp)
		cfg := mot.Config{Policy: s.Policy}
		newNet = func(int) quorum.Interconnect { return mot.NewNetwork(side, mot.ModulesAtRoots, cfg) }
	}
	r := float64(p.R())
	entries := (float64(p.Mem) + float64(max(engines, 1))*float64(s.Procs)) * r
	if engines > 0 {
		entries += float64(p.M)
	}
	if !(entries <= maxTableEntries) {
		return nil, fmt.Errorf("core: %v needs %.3g table entries (m=%d, r=%d, M=%d, %d engines), over the build budget of %d",
			s, entries, p.Mem, p.R(), p.M, max(engines, 1), maxTableEntries)
	}
	var ts *quorum.TwoStageConfig
	if s.TwoStage {
		ts = &quorum.TwoStageConfig{Stage1Phases: s.Stage1Phases, Stage2Bandwidth: s.Stage2Bandwidth}
	}
	b = &Built{Spec: s, Params: p, Side: side}
	b.Store = quorum.NewStore(memmap.GenerateBanded(p, s.Seed, s.Lanes))
	name := s.name(p, side)
	if engines == 0 {
		b.Machine = quorum.NewMachine(name, s.Procs, s.Mode, b.Store, newNet(0))
		b.Machine.SetTwoStage(ts)
		return b, nil
	}
	b.Pool = quorum.NewPool(name, b.Store, newNet,
		quorum.PoolConfig{Engines: engines, Procs: s.Procs, Mode: s.Mode, TwoStage: ts})
	return b, nil
}

// name labels the machines; a pool's shard k is named name[k].
func (s Spec) name(p memmap.Params, side int) string {
	switch s.Kind {
	case KindMOT2D:
		rail := ""
		if s.DualRail {
			rail = ", dual-rail"
		}
		return fmt.Sprintf("2DMOT(n=%d, side=%d, r=%d%s)", s.Procs, side, p.R(), rail)
	case KindLuccio:
		return fmt.Sprintf("2DMOT-Luccio90(n=%d, side=%d, r=%d)", s.Procs, side, p.R())
	}
	return fmt.Sprintf("DMMPC(n=%d, M=%d, r=%d)", s.Procs, p.M, p.R())
}
