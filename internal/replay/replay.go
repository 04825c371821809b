// Package replay records the quorum machines' post-dedup request-batch
// streams to disk and replays them straight into the engines — the
// serving-lane measurement backbone that turns E-family sweeps at n ≥ 4096
// into pure hot-path measurements: a replayed step skips the program
// coordinator and the sort/dedup/conflict-check pipeline, and one
// machine construction (~0.2 s at production sizes) is amortized across an
// entire trace file.
//
// A trace captures everything the engine's behavior is a deterministic
// function of — the machine's construction parameters, the LoadCells
// initializations, and the deduplicated quorum.Request batches of every
// step — so record → replay reproduces StepReports and the final store
// Fingerprint bit-for-bit (the differential tests in this package assert
// it across interconnects, rails, schedules and engine counts).
//
// # File format (version 1)
//
// A trace file is the 8-byte magic "PRAMTRC1" (the trailing byte is the
// format version) followed by a stream of FRAMES, each:
//
//	kind:1  payloadLen:uvarint  payload:payloadLen  crc32c:4 (LE)
//
// where the CRC-32C covers the kind byte plus the payload, so a flipped
// kind, a mis-framed length or a corrupted payload all surface as a
// checksum error; payloadLen is additionally capped (maxFramePayload) so a
// corrupted length cannot drive allocation. The frame kinds:
//
//	header  (0x01) — exactly one, first: format version, machine kind
//	                 (DMMPC / 2DMOT / Luccio'90), lane count K, per-lane
//	                 processor count n, conflict mode, map seed, the memory
//	                 and granularity exponents, dual-rail/two-stage flags
//	                 and knobs, routing policy — everything Build needs to
//	                 reconstruct the machines — plus derived validation
//	                 fields (variable count, module count, redundancy, grid
//	                 side, and the start-of-recording store fingerprint)
//	                 that Open cross-checks against a fresh build, so
//	                 parameter-derivation drift or a pre-loaded store fails
//	                 loudly instead of replaying wrong costs.
//	load    (0x02) — one LoadCells call: lane, base address, values
//	                 (zigzag varints). Setup-time memory initialization.
//	step    (0x03) — one executed step of one lane: the deduplicated read
//	                 batch, the reader fan-out lists, the deduplicated
//	                 write batch, and the step's recorded costs (time,
//	                 phases, copy accesses, network cycles, contention, an
//	                 FNV-1a hash of the dense Values buffer, and an error
//	                 flag). Request fields are delta-encoded: processor ids
//	                 and variable ids as zigzag varints against the
//	                 previous request in the batch (dedup emits batches in
//	                 ascending variable order, so the deltas are small),
//	                 write payloads as zigzag varints, and each read's
//	                 extra reader ids as plain varint deltas along the
//	                 run's ascending processor order.
//	barrier (0x04) — end of one Pool.ExecuteSteps round. Multi-lane traces
//	                 only: the frames between barriers are one step per
//	                 lane in ascending lane order (the shard-lane layout —
//	                 lane k is workload shard k, serialized in the pool's
//	                 canonical serial-reference order at the round's
//	                 barrier). Single-lane traces have no barriers; every
//	                 step frame is its own round.
//	eof     (0x05) — exactly one, last: total recorded steps and the final
//	                 store fingerprint. A stream that ends without an eof
//	                 frame was truncated and every reader reports it.
//
// Numbers are unsigned varints (uvarint), signed values zigzag varints,
// and the few fixed-width fields (float bits, fingerprints, hashes)
// little-endian 8-byte words. The read path performs zero steady-state
// heap allocations: frames decode into reusable buffers owned by the
// Reader, so replaying a step costs exactly the engine's own work.
//
// Recording hooks quorum.StepSink (see the quorum package doc's "Trace
// replay" section); replaying feeds quorum.Machine.ExecuteDedupStep /
// quorum.Pool.ExecuteDedupSteps, which run the live step's body without
// its dedup front end. The verify mode re-executes every step
// and compares recorded costs, per-step Values hashes and the final
// fingerprint — the consistency-checking methodology of trace-based P-RAM
// validation (cf. arXiv:1302.5161) applied to our own engine.
package replay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// MachineKind selects which machine family a trace drives.
type MachineKind uint8

const (
	// KindDMMPC is the Theorem 2 machine (complete bipartite K(n,M)).
	KindDMMPC MachineKind = iota
	// KindMOT2D is the Theorem 3 machine (2D mesh of trees, modules at
	// the leaves).
	KindMOT2D
	// KindLuccio is the Luccio'90 baseline (modules at the tree roots,
	// Lemma 1 redundancy). Single-lane only.
	KindLuccio
)

// String implements fmt.Stringer.
func (k MachineKind) String() string {
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

// ParseMachineKind maps a CLI spelling to its kind.
func ParseMachineKind(s string) (MachineKind, error) {
	switch s {
	case "dmmpc", "bipartite", "e3":
		return KindDMMPC, nil
	case "mot2d", "mot", "e5":
		return KindMOT2D, nil
	case "luccio":
		return KindLuccio, nil
	}
	return 0, fmt.Errorf("replay: unknown machine kind %q (want dmmpc, mot2d or luccio)", s)
}

// Config fixes the machine a trace records and replays against. It is the
// persisted part of the header: two Builds from one Config construct
// bit-for-bit interchangeable machines.
type Config struct {
	// Kind is the machine family.
	Kind MachineKind
	// Lanes is the workload-shard count K: 1 builds a single Machine, > 1
	// a K-engine Pool over a banded map (0 consults PRAMSIM_ENGINES, < 0
	// GOMAXPROCS — normalized to the resolved count before recording).
	Lanes int
	// Procs is the per-lane processor count n.
	Procs int
	// Mode is the P-RAM conflict convention.
	Mode model.Mode
	// Seed draws the memory map (0 normalizes to the constructors' 1).
	Seed int64
	// KExp is the memory-size exponent (m = n^KExp; 0 → 2).
	KExp float64
	// Gran is the granularity exponent: ε for the DMMPC (0 → 1), δ for
	// the 2DMOT (0 → 2). Ignored by Luccio.
	Gran float64
	// DualRail enables the 2DMOT's row+column banks.
	DualRail bool
	// Policy is the 2DMOT tree-edge contention rule.
	Policy mot.Policy
	// TwoStage selects the faithful UW'87 two-stage schedule, with
	// Stage1Phases/Stage2Bandwidth overriding its defaults when > 0.
	TwoStage        bool
	Stage1Phases    int
	Stage2Bandwidth int

	// Parallelism (router workers) and Workers (pool executors) are
	// runtime wall-clock knobs: NOT persisted, never affect results.
	Parallelism int `json:"-"`
	Workers     int `json:"-"`
}

// normalize resolves defaulted fields to the values the core constructors
// would pick, so the persisted header pins them explicitly.
func (c *Config) normalize() {
	c.Lanes = quorum.ResolveEngines(c.Lanes)
	if c.KExp == 0 {
		c.KExp = 2
	}
	if c.Gran == 0 {
		if c.Kind == KindDMMPC {
			c.Gran = 1
		} else {
			c.Gran = 2
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// String summarizes the configuration.
func (c Config) String() string {
	s := fmt.Sprintf("%s n=%d K=%d mode=%s seed=%d k=%.3g gran=%.3g",
		c.Kind, c.Procs, c.Lanes, c.Mode, c.Seed, c.KExp, c.Gran)
	if c.DualRail {
		s += " dual-rail"
	}
	if c.TwoStage {
		s += " two-stage"
	}
	if c.Policy == mot.QueueOnCollision {
		s += " queue"
	}
	return s
}

// Built is the machine set a Config constructs: a single Machine when
// Lanes == 1, a K-engine Pool otherwise, plus the shared store and the
// derived parameters the header validates.
type Built struct {
	Cfg     Config // normalized
	Machine *quorum.Machine
	Pool    *quorum.Pool
	Store   *quorum.Store
	Params  memmap.Params
	Side    int // grid side (0 for the bipartite machines)
}

// Lane returns the machine serving one lane (the single machine, or the
// pool's shard k).
func (b *Built) Lane(k int) *quorum.Machine {
	if b.Pool != nil {
		return b.Pool.Machine(k)
	}
	return b.Machine
}

// Build constructs the configured machines from scratch — the step a
// replay run pays ONCE per file instead of once per sweep point. Invalid
// parameter points (including ones a corrupted header names) surface as
// errors, never as the core constructors' panics.
func (c Config) Build() (b *Built, err error) {
	c.normalize()
	if c.Procs < 1 {
		return nil, fmt.Errorf("replay: Procs=%d < 1", c.Procs)
	}
	if c.Mode > model.CRCWArbitrary {
		return nil, fmt.Errorf("replay: unknown conflict mode %d", c.Mode)
	}
	if c.Policy > mot.QueueOnCollision {
		return nil, fmt.Errorf("replay: unknown routing policy %d", c.Policy)
	}
	if c.Kind == KindLuccio && c.Lanes != 1 {
		return nil, fmt.Errorf("replay: the Luccio baseline supports a single lane, not %d", c.Lanes)
	}
	// The core constructors and memmap generators panic on infeasible
	// parameter points (n over the grid side, bands below the redundancy,
	// oversized stores); a trace header must not be able to crash a
	// reader.
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, fmt.Errorf("replay: infeasible machine parameters: %v", r)
		}
	}()
	b = &Built{Cfg: c}
	switch c.Kind {
	case KindDMMPC:
		cc := core.Config{K: c.KExp, Eps: c.Gran, Mode: c.Mode, Seed: c.Seed,
			Engines: c.Lanes, Workers: c.Workers}
		if c.Lanes == 1 {
			m := core.NewDMMPC(c.Procs, cc)
			b.Machine, b.Store, b.Params = m.Machine, m.Store(), m.P
		} else {
			p := core.NewDMMPCPool(c.Procs, cc)
			b.Pool, b.Store, b.Params = p.Pool, p.Store(), p.P
		}
	case KindMOT2D:
		mc := core.MOTConfig{K: c.KExp, Delta: c.Gran, Mode: c.Mode, Seed: c.Seed,
			Policy: c.Policy, DualRail: c.DualRail, Parallelism: c.Parallelism,
			Engines: c.Lanes, Workers: c.Workers}
		if c.Lanes == 1 {
			m := core.NewMOT2D(c.Procs, mc)
			b.Machine, b.Store, b.Params, b.Side = m.Machine, m.Store(), m.P, m.Side
		} else {
			p := core.NewMOT2DPool(c.Procs, mc)
			b.Pool, b.Store, b.Params, b.Side = p.Pool, p.Store(), p.P, p.Side
		}
	case KindLuccio:
		mc := core.MOTConfig{K: c.KExp, Mode: c.Mode, Seed: c.Seed,
			Policy: c.Policy, Parallelism: c.Parallelism}
		m := core.NewLuccio(c.Procs, mc)
		b.Machine, b.Store, b.Params, b.Side = m.Machine, m.Store(), m.P, m.Side
	default:
		return nil, fmt.Errorf("replay: unknown machine kind %d", c.Kind)
	}
	if c.TwoStage {
		for k := 0; k < c.Lanes; k++ {
			cfg := quorum.TwoStageConfig{Stage1Phases: c.Stage1Phases, Stage2Bandwidth: c.Stage2Bandwidth}
			b.Lane(k).SetTwoStage(&cfg)
		}
	}
	return b, nil
}
