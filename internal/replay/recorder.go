package replay

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/quorum"
)

// Recorder captures a machine or pool run as a trace file. It implements
// quorum.StepSink: NewRecorder writes the header and attaches the sink to
// the built machines; the caller then drives the run exactly as it would
// without recording (ExecuteSteps / LoadCells) and finally calls Close,
// which appends the eof frame (recorded step count + final store
// fingerprint) and detaches.
//
// Sink calls arrive serially (see quorum.StepSink), and every call writes
// its frame at once, so step frames land in the order the steps ran and
// StepBarrier closes the round they belong to.
//
// Writer errors are sticky: recording continues cheaply as a no-op and the
// first error is reported by Close.
type Recorder struct {
	w     *bufio.Writer
	built *core.Built
	lanes int
	steps int64
	enc   []byte // payload encoding buffer
	err   error
}

// NewRecorder writes the trace header for built's configuration onto w and
// attaches the recorder to built's machines (core.Built.SetStepSink). The
// store must still be in its post-construction state (the header embeds
// its fingerprint and replaying readers verify it): attach before any
// loads or steps. The trace has built.Spec.Lanes lanes. A capture whose
// lanes are not built's (the serving front end names a lane per tenant,
// so the lane count survives online pool resizes) attaches its own
// renaming sink in the recorder's place and forwards to the recorder's
// StepSink methods; Close detaches that sink too.
func NewRecorder(w io.Writer, built *core.Built) (*Recorder, error) {
	r := &Recorder{
		w:     bufio.NewWriter(w),
		built: built,
		lanes: built.Spec.Lanes,
	}
	if _, err := r.w.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("replay: writing magic: %w", err)
	}
	hdr := encodeHeader(nil, built, built.Store.Fingerprint())
	if err := r.writeFrame(kindHeader, hdr); err != nil {
		return nil, err
	}
	built.SetStepSink(r)
	return r, nil
}

// writeFrame emits one frame onto the buffered writer.
func (r *Recorder) writeFrame(kind byte, payload []byte) error {
	if r.err != nil {
		return r.err
	}
	var head [binary.MaxVarintLen64 + 1]byte
	head[0] = kind
	n := 1 + binary.PutUvarint(head[1:], uint64(len(payload)))
	if _, err := r.w.Write(head[:n]); err != nil {
		r.err = fmt.Errorf("replay: writing frame: %w", err)
		return r.err
	}
	if _, err := r.w.Write(payload); err != nil {
		r.err = fmt.Errorf("replay: writing frame: %w", err)
		return r.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], frameCRC(kind, payload))
	if _, err := r.w.Write(crc[:]); err != nil {
		r.err = fmt.Errorf("replay: writing frame: %w", err)
	}
	return r.err
}

// RecordStep implements quorum.StepSink.
func (r *Recorder) RecordStep(lane int, s quorum.DedupStep, rep model.StepReport) {
	if lane < 0 || lane >= r.lanes {
		r.failf("RecordStep lane %d outside [0,%d)", lane, r.lanes)
		return
	}
	r.enc = encodeStep(r.enc[:0], lane, s, costsOf(&rep))
	r.writeFrame(kindStep, r.enc)
	r.steps++
}

// RecordLoad implements quorum.StepSink.
func (r *Recorder) RecordLoad(lane int, base model.Addr, vals []model.Word) {
	if lane < 0 || lane >= r.lanes {
		r.failf("RecordLoad lane %d outside [0,%d)", lane, r.lanes)
		return
	}
	r.enc = encodeLoad(r.enc[:0], lane, base, vals)
	r.writeFrame(kindLoad, r.enc)
}

// StepBarrier implements quorum.StepSink: it closes the round whose step
// frames were just written. A single-lane trace has no barriers.
func (r *Recorder) StepBarrier() {
	if r.lanes > 1 {
		r.writeFrame(kindBarrier, nil)
	}
}

// failf latches a recording error.
func (r *Recorder) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("replay: %s", fmt.Sprintf(format, args...))
	}
}

// Close detaches the sink, writes the eof frame with the final store
// fingerprint and flushes the writer. The recorder must not be used
// afterwards.
func (r *Recorder) Close() error {
	r.built.SetStepSink(nil)
	payload := encodeEOF(nil, r.steps, r.built.Store.Fingerprint())
	r.writeFrame(kindEOF, payload)
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = fmt.Errorf("replay: flushing trace: %w", err)
	}
	r.built = nil
	return r.err
}
