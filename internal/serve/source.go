package serve

import (
	"repro/internal/core"
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

// TraceConfigured is implemented by sources backed by a recorded PRAMTRC1
// trace: TraceConfig returns the trace's header spec (machine kind, lane
// shape, knobs) and true. Wrapper sources forward it, so the
// header survives adapters like Remap and NewServer can validate the
// recorded machine kind against the pool's interconnect.
type TraceConfigured interface {
	TraceConfig() (core.Spec, bool)
}

// TraceHeader unwraps a source's recorded trace header, if it has one.
func TraceHeader(src Source) (core.Spec, bool) {
	if tc, ok := src.(TraceConfigured); ok {
		return tc.TraceConfig()
	}
	return core.Spec{}, false
}

// remapSource folds a source's addresses into a band with a modular remap
// — shape-preserving (hot variables stay hot, broadcasts stay broadcasts)
// but NOT offset-preserving, so it is the adapter for streams recorded
// against a different variable space, like trace sources.
type remapSource struct {
	inner Source
	lo    int
	span  int
}

// Remap confines a source's addresses to the band: addr → Lo + addr mod
// Span. Sources that already emit band-fitting addresses pass through
// unchanged batches (the arithmetic is still applied; it is the identity
// on [0, Span) plus the offset).
func Remap(src Source, b Band) Source {
	return &remapSource{inner: src, lo: b.Lo, span: b.Span()}
}

// Procs implements Source.
func (r *remapSource) Procs() int { return r.inner.Procs() }

// Err implements Source.
func (r *remapSource) Err() error { return r.inner.Err() }

// NextBatch implements Source, remapping in place.
func (r *remapSource) NextBatch() (model.Batch, bool) {
	b, ok := r.inner.NextBatch()
	if !ok {
		return nil, false
	}
	for i := range b {
		if b[i].Op != model.OpNone {
			b[i].Addr = r.lo + b[i].Addr%r.span
		}
	}
	return b, true
}

// TraceConfig implements TraceConfigured by delegation: remapping does not
// change what was recorded.
func (r *remapSource) TraceConfig() (core.Spec, bool) {
	return TraceHeader(r.inner)
}

// traceSource adapts one lane of a replay.BatchSource as a Source that
// also surfaces its PRAMTRC1 header.
type traceSource struct{ *replay.BatchSource }

// TraceConfig implements TraceConfigured.
func (t traceSource) TraceConfig() (core.Spec, bool) { return t.Spec(), true }

// NewTraceSource returns a factory serving one lane of a recorded PRAMTRC1
// trace (replay.BatchSource) as tenant traffic, with the trace's addresses
// modularly remapped into the tenant's band. When loop is true the trace
// restarts at eof and streams indefinitely. The trace's header rides along
// (TraceConfigured), so NewServer validates the recorded machine kind
// against the pool's interconnect at admission.
func NewTraceSource(data []byte, lane int, loop bool) SourceFactory {
	return func(b Band) Source {
		src, err := replay.NewBatchSource(data, lane, loop)
		if err != nil {
			return &failedSource{err: err}
		}
		return Remap(traceSource{src}, b)
	}
}

// failedSource is a source that was dead on arrival: it yields nothing and
// reports its construction error, so a bad trace surfaces in TenantStats
// and the Logf hook instead of panicking inside NewServer.
type failedSource struct{ err error }

func (f *failedSource) Procs() int                     { return 1 }
func (f *failedSource) Err() error                     { return f.err }
func (f *failedSource) NextBatch() (model.Batch, bool) { return nil, false }
