package replay

import (
	"bytes"
	"io"

	"repro/internal/core"
	"repro/internal/model"
)

// BatchSource turns one lane of a recorded PRAMTRC1 trace back into LIVE
// model.Batch step batches — the serving front end's trace-as-traffic
// adapter (repro/internal/serve). Where the Replayer feeds recorded
// post-dedup request streams straight into the engines that recorded them
// (bit-for-bit replay against the trace's own machine), a BatchSource
// reconstructs the PRE-dedup batch of each step (quorum.DedupStep.
// Reconstruct: every reader in a read's fan-out list becomes its own
// OpRead request, every write an OpWrite), so the stream can be submitted
// to a DIFFERENT machine through the normal ExecuteStep front end.
// Re-deduplicating a reconstructed batch yields the recorded step again,
// so feeding the reconstruction to an identical machine reproduces the
// recorded costs and store image exactly (TestBatchSourceRoundTrip).
//
// Load and barrier frames are skipped: a traffic source replays access
// SHAPE, not memory initialization, and round structure belongs to the
// consuming scheduler. Addresses are the trace's own [0, Mem()) variable
// ids; a consumer serving the stream into a smaller or banded variable
// space folds them into its own range.
//
// NextBatch returns batches aliasing one reusable buffer and performs zero
// steady-state heap allocations, like every other replay read path.
type BatchSource struct {
	data []byte
	br   bytes.Reader
	r    *Reader
	lane int
	loop bool

	batch model.Batch // indexed by proc, len = Spec().Procs
	steps int64
	done  bool
	err   error
}

// NewBatchSource opens a trace held in memory as a batch stream for one
// lane (single-lane traces use lane 0). When loop is true the source
// rewinds at eof and streams the trace's steps again, indefinitely;
// otherwise it is exhausted at eof.
func NewBatchSource(data []byte, lane int, loop bool) (*BatchSource, error) {
	s := &BatchSource{data: data, lane: lane, loop: loop}
	s.br.Reset(data)
	r, err := NewReader(&s.br)
	if err != nil {
		return nil, err
	}
	if lane < 0 || lane >= r.Spec().Lanes {
		return nil, corruptf("lane %d outside the trace's %d lanes", lane, r.Spec().Lanes)
	}
	s.r = r
	s.batch = model.NewBatch(r.Spec().Procs)
	return s, nil
}

// Spec returns the trace's recorded machine spec.
func (s *BatchSource) Spec() core.Spec { return s.r.Spec() }

// Procs returns the per-lane processor count — the width of the batches
// NextBatch yields.
func (s *BatchSource) Procs() int { return s.r.Spec().Procs }

// Mem returns the trace's variable-space size: every address NextBatch
// yields is in [0, Mem()).
func (s *BatchSource) Mem() int { return s.r.mem }

// Steps returns how many step batches have been yielded so far (across
// loop passes).
func (s *BatchSource) Steps() int64 { return s.steps }

// Err reports the stream error that ended the source early (nil after a
// clean eof).
func (s *BatchSource) Err() error { return s.err }

// NextBatch yields the next reconstructed step batch of the source's lane,
// or false when the trace is exhausted (clean eof on a non-looping source)
// or broken (Err() reports the cause). The batch aliases the source's
// reusable buffer — including across a loop rewind — and callers may
// mutate it freely before the next call.
func (s *BatchSource) NextBatch() (model.Batch, bool) {
	if s.done {
		return nil, false
	}
	for {
		f, err := s.r.Next()
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			s.done = true
			return nil, false
		}
		switch f.Kind {
		case KindStep:
			if f.Lane != s.lane {
				continue
			}
			f.Reconstruct(s.batch)
			s.steps++
			return s.batch, true
		case KindEOF:
			if !s.loop {
				s.done = true
				return nil, false
			}
			s.br.Reset(s.data)
			if err := s.r.Reset(&s.br); err != nil {
				s.err = err
				s.done = true
				return nil, false
			}
		}
		// Load and barrier frames, and other lanes' steps, are skipped.
	}
}
