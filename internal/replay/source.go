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
// consuming scheduler. Addresses are the trace's own variable ids; a
// consumer serving the stream into a smaller or banded variable space
// folds them into its own range. The source is exhausted at eof.
//
// NextBatch returns batches aliasing one reusable buffer and performs zero
// steady-state heap allocations, like every other replay read path.
type BatchSource struct {
	r    *Reader
	lane int

	batch model.Batch // indexed by proc, len = Spec().Procs
	done  bool
	err   error
}

// NewBatchSource opens a trace held in memory as a batch stream for one
// lane (single-lane traces use lane 0).
func NewBatchSource(data []byte, lane int) (*BatchSource, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if lane < 0 || lane >= r.Spec().Lanes {
		return nil, corruptf("lane %d outside the trace's %d lanes", lane, r.Spec().Lanes)
	}
	return &BatchSource{r: r, lane: lane, batch: model.NewBatch(r.Spec().Procs)}, nil
}

// Spec returns the trace's recorded machine spec.
func (s *BatchSource) Spec() core.Spec { return s.r.Spec() }

// Procs returns the per-lane processor count — the width of the batches
// NextBatch yields.
func (s *BatchSource) Procs() int { return s.r.Spec().Procs }

// Err reports the stream error that ended the source early (nil after a
// clean eof).
func (s *BatchSource) Err() error { return s.err }

// NextBatch yields the next reconstructed step batch of the source's lane,
// or false when the trace is exhausted (clean eof) or broken (Err()
// reports the cause). The batch aliases the source's reusable buffer, and
// callers may mutate it freely before the next call.
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
			return s.batch, true
		case KindEOF:
			s.done = true
			return nil, false
		}
		// Load and barrier frames, and other lanes' steps, are skipped.
	}
}
