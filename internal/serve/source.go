package serve

import (
	"repro/internal/model"
	"repro/internal/replay"
)

// genSource adapts one lane of a replay.Generator — the synthetic pattern
// shapes of internal/replay/generate.go — as a band-local tenant source:
// the generator draws addresses in [0, span) and the source offsets them
// into the tenant's band in place.
type genSource struct {
	g     *replay.Generator
	lo    int
	procs int
	limit int64 // 0 = unbounded
	steps int64
}

// NewPatternSource returns a factory for pattern-shaped BAND-LOCAL traffic:
// procs processors drawing addresses inside the tenant's own band, for
// `steps` steps (0 = unbounded, for closed-loop load generation bounded by
// rounds). The (pattern, procs, steps, seed) tuple names a reproducible
// stream.
func NewPatternSource(pattern replay.Pattern, procs int, steps, seed int64) SourceFactory {
	return func(b Band) Source {
		return &genSource{
			g:     replay.NewGenerator(pattern, 1, procs, b.Span(), seed),
			lo:    b.Lo,
			procs: procs,
			limit: steps,
		}
	}
}

// NewGlobalPatternSource is NewPatternSource over the FULL variable space,
// ignoring the tenant's band — deliberately cross-band traffic that forces
// serial-component merges (the degradation metrics' test load, and the
// worst case a mix can contain).
func NewGlobalPatternSource(pattern replay.Pattern, procs int, steps, seed int64) SourceFactory {
	return func(b Band) Source {
		return &genSource{
			g:     replay.NewGenerator(pattern, 1, procs, b.Mem, seed),
			lo:    0,
			procs: procs,
			limit: steps,
		}
	}
}

// Procs implements Source.
func (g *genSource) Procs() int { return g.procs }

// Err implements Source: generated streams cannot fail.
func (g *genSource) Err() error { return nil }

// NextBatch implements Source.
func (g *genSource) NextBatch() (model.Batch, bool) {
	if g.limit > 0 && g.steps >= g.limit {
		return nil, false
	}
	b := g.g.Step(int(g.steps))[0]
	g.steps++
	if g.lo != 0 {
		for i := range b {
			if b[i].Op != model.OpNone {
				b[i].Addr += g.lo
			}
		}
	}
	return b, true
}

// traceSource serves one lane of a recorded PRAMTRC1 trace
// (replay.BatchSource) with its addresses folded into the tenant's band:
// addr → Lo + addr mod Span. The fold preserves the traffic's shape (hot
// variables stay hot, broadcasts stay broadcasts) but not its offsets,
// since the trace was recorded against its own variable space. NewServer
// reads the embedded header (Spec) to check the recorded machine kind
// against the pool's interconnect.
type traceSource struct {
	*replay.BatchSource
	lo, span int
}

// NextBatch implements Source, folding addresses in place.
func (t *traceSource) NextBatch() (model.Batch, bool) {
	b, ok := t.BatchSource.NextBatch()
	if !ok {
		return nil, false
	}
	for i := range b {
		if b[i].Op != model.OpNone {
			b[i].Addr = t.lo + b[i].Addr%t.span
		}
	}
	return b, true
}

// NewTraceSource returns a factory serving one lane of a recorded PRAMTRC1
// trace as tenant traffic, with the trace's addresses folded into the
// tenant's band (traceSource); the source is exhausted at the trace's
// eof. NewServer validates the recorded machine kind against the pool's
// interconnect at admission.
func NewTraceSource(data []byte, lane int) SourceFactory {
	return func(b Band) Source {
		src, err := replay.NewBatchSource(data, lane)
		if err != nil {
			return &failedSource{err: err}
		}
		return &traceSource{BatchSource: src, lo: b.Lo, span: b.Span()}
	}
}

// failedSource is a source that was dead on arrival: it yields nothing and
// reports its construction error, so a bad trace surfaces in TenantStats
// and the Logf hook instead of panicking inside NewServer.
type failedSource struct{ err error }

func (f *failedSource) Procs() int                     { return 1 }
func (f *failedSource) Err() error                     { return f.err }
func (f *failedSource) NextBatch() (model.Batch, bool) { return nil, false }
