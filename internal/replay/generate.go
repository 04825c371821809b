package replay

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
)

// Pattern selects a synthetic request-stream shape, so sweeps can be
// driven from generated traces without a source program. Generated batches
// are executed through the real machines while recording, so the trace's
// embedded costs and fingerprints are real measurements, not synthetic
// estimates.
type Pattern uint8

const (
	// Uniform draws every processor's address uniformly over the full
	// variable space, alternating read and write steps — the classic
	// random-permutation-style load the E-family sweeps use.
	Uniform Pattern = iota
	// Banded confines each lane's addresses to its own variable band
	// (memmap.BandRange) — the band-local traffic of K independent
	// programs, which a banded map turns into disjoint module components.
	Banded
	// Hotspot sends most accesses (hotProb) to a small window of hot
	// variables, concentrating load on the few modules holding their
	// copies — the adversarial module-pressure shape of the faulty-memory
	// P-RAM literature (arXiv:1801.00237).
	Hotspot
	// Broadcast has every processor read one common variable per step —
	// maximal concurrent-read combining (the step dedups to a single
	// request) with a rotating target.
	Broadcast
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Banded:
		return "banded"
	case Hotspot:
		return "hotspot"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// ParsePattern maps a CLI spelling to its pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "banded":
		return Banded, nil
	case "hotspot", "hotspot-module":
		return Hotspot, nil
	case "broadcast":
		return Broadcast, nil
	}
	return 0, fmt.Errorf("replay: unknown pattern %q (want uniform, banded, hotspot or broadcast)", s)
}

// hotWindow is the hot-set size of the Hotspot pattern: small enough that
// the r modules holding the window's copies saturate, large enough to
// exercise several of them.
const hotWindow = 16

// hotProb is the probability a Hotspot access lands in the hot window.
const hotProb = 0.85

// Generator draws deterministic synthetic step batches for every lane of a
// configuration. One Generator serves all lanes from one seeded stream, so
// a (pattern, shape, seed) triple names a reproducible workload.
type Generator struct {
	pattern Pattern
	lanes   int
	procs   int
	mem     int
	rng     *rand.Rand
	batches []model.Batch
}

// NewGenerator builds a generator for the given trace shape.
func NewGenerator(pattern Pattern, lanes, procs, mem int, seed int64) *Generator {
	g := &Generator{
		pattern: pattern,
		lanes:   lanes,
		procs:   procs,
		mem:     mem,
		rng:     rand.New(rand.NewSource(seed)),
		batches: make([]model.Batch, lanes),
	}
	for k := range g.batches {
		g.batches[k] = model.NewBatch(procs)
	}
	return g
}

// Step fills and returns one step's batches, one per lane (aliasing the
// generator's reusable buffers).
func (g *Generator) Step(step int) []model.Batch {
	for k := range g.batches {
		g.fill(k, step, g.batches[k])
	}
	return g.batches
}

// fill draws lane k's batch for one step.
func (g *Generator) fill(k, step int, b model.Batch) {
	write := step%2 == 1
	lo, hi := 0, g.mem
	if g.pattern == Banded {
		lo, hi = memmap.BandRange(k, g.mem, g.lanes)
	}
	switch g.pattern {
	case Broadcast:
		// One common target per (lane, step); reads only — a broadcast
		// write would just be one write after combining.
		target := lo + (step*31+k*17)%(hi-lo)
		for i := 0; i < g.procs; i++ {
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: target}
		}
	case Hotspot:
		for i := 0; i < g.procs; i++ {
			addr := lo + g.rng.Intn(hi-lo)
			if g.rng.Float64() < hotProb {
				w := hotWindow
				if hi-lo < w {
					w = hi - lo
				}
				addr = lo + g.rng.Intn(w)
			}
			b[i] = g.request(i, write, addr)
		}
	default: // Uniform, Banded
		for i := 0; i < g.procs; i++ {
			b[i] = g.request(i, write, lo+g.rng.Intn(hi-lo))
		}
	}
}

// request renders one processor's request. Write steps under CRCW write
// seeded values; the concurrent-write conflicts they produce are resolved
// by the machine's mode.
func (g *Generator) request(proc int, write bool, addr int) model.Request {
	if write {
		return model.Request{Proc: proc, Op: model.OpWrite, Addr: addr, Value: model.Word(g.rng.Int63n(1 << 30))}
	}
	return model.Request{Proc: proc, Op: model.OpRead, Addr: addr}
}

// LoadImage initializes `count` cells per lane (band-local, so lanes load
// disjoint ranges) with seeded values through the recorded LoadCells path,
// in chunks. It is the standard workload-setup preamble of a recorded run.
func LoadImage(b *core.Built, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const chunk = 4096
	vals := make([]model.Word, chunk)
	for k := 0; k < b.Spec.Lanes; k++ {
		lo, hi := memmap.BandRange(k, b.Params.Mem, b.Spec.Lanes)
		n := count
		if n > hi-lo {
			n = hi - lo
		}
		for off := 0; off < n; off += chunk {
			c := chunk
			if off+c > n {
				c = n - off
			}
			for i := 0; i < c; i++ {
				vals[i] = rng.Int63n(1 << 30)
			}
			b.Lane(k).LoadCells(lo+off, vals[:c])
		}
	}
}
