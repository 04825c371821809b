package replay

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/quorum"
)

// Frame is the decoded view of one trace frame. It aliases the Reader's
// reusable buffers: a frame is valid only until the next Next call.
type Frame struct {
	Kind byte
	Lane int

	// Step frames (KindStep): the recorded post-dedup step and its
	// recorded costs.
	quorum.DedupStep
	Costs StepCosts

	// Load frames (KindLoad).
	LoadBase model.Addr
	LoadVals []model.Word

	// EOF frames (KindEOF).
	Steps       int64
	Fingerprint uint64
}

// Exported frame kinds, for drivers switching on Reader output.
const (
	KindLoad    = kindLoad
	KindStep    = kindStep
	KindBarrier = kindBarrier
	KindEOF     = kindEOF
)

// Reader streams a trace file frame by frame. The read path performs zero
// steady-state heap allocations: every frame decodes into buffers owned by
// the Reader and reused across Next calls. Integrity is enforced
// throughout — magic, per-frame CRC-32C, bounds on every count and id —
// so corrupt and truncated files surface as errors wrapping ErrCorrupt or
// ErrTruncated, never as panics or silent misreads.
type Reader struct {
	br   *bufio.Reader
	spec core.Spec
	mem  int // variable-space bound for id validation

	// Derived validation fields decoded from the header.
	hdrMem, hdrModules, hdrRedundancy, hdrSide int
	startFP                                    uint64

	frame    Frame
	buf      []byte
	magicBuf [8]byte // reusable magic and checksum read buffers (they
	crcBuf   [4]byte // would escape as locals through io.ReadFull)
	sawEOF   bool
	err      error // sticky
}

// NewReader opens a trace stream: it consumes the magic and header frame
// and validates both. The header's machine is NOT built — see Open for the
// executing replayer.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{br: bufio.NewReaderSize(src, 1<<16)}
	if err := r.readPreamble(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset rewinds the reader onto a fresh stream of the SAME trace (another
// pass for repeated-measurement replays). It re-validates magic and
// header; steady-state allocation-free.
func (r *Reader) Reset(src io.Reader) error {
	r.br.Reset(src)
	r.sawEOF = false
	r.err = nil
	return r.readPreamble()
}

// readPreamble consumes magic plus header frame.
func (r *Reader) readPreamble() error {
	if _, err := io.ReadFull(r.br, r.magicBuf[:]); err != nil {
		return corruptf("reading magic: %v", err)
	}
	if r.magicBuf != magic {
		return corruptf("bad magic %q", r.magicBuf[:])
	}
	kind, payload, err := r.readFrame()
	if err != nil {
		return err
	}
	if kind != kindHeader {
		return corruptf("first frame has kind %#x, want header", kind)
	}
	spec, mem, modules, redundancy, side, startFP, err := decodeHeader(payload)
	if err != nil {
		return err
	}
	r.spec, r.mem = spec, mem
	r.hdrMem, r.hdrModules, r.hdrRedundancy, r.hdrSide = mem, modules, redundancy, side
	r.startFP = startFP
	return nil
}

// Spec returns the trace's machine spec (valid after NewReader).
func (r *Reader) Spec() core.Spec { return r.spec }

// readFrame reads one raw frame into the reusable buffer and checks its CRC.
//
//pram:hotpath
func (r *Reader) readFrame() (byte, []byte, error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	length, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, corruptf("frame length: %v", err)
	}
	if length > maxFramePayload {
		//pram:coldalloc corrupt-input error exit
		return 0, nil, corruptf("frame payload %d exceeds cap %d", length, maxFramePayload)
	}
	if uint64(cap(r.buf)) < length {
		r.buf = make([]byte, length)
	}
	buf := r.buf[:length]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return 0, nil, corruptf("frame payload: %v", err)
	}
	if _, err := io.ReadFull(r.br, r.crcBuf[:]); err != nil {
		return 0, nil, corruptf("frame checksum: %v", err)
	}
	crc := &r.crcBuf
	want := uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	if got := frameCRC(kind, buf); got != want {
		//pram:coldalloc corrupt-input error exit
		return 0, nil, corruptf("frame checksum mismatch (kind %#x, %d bytes)", kind, length)
	}
	return kind, buf, nil
}

// Next returns the next frame. After the eof frame has been returned, Next
// reports io.EOF; a stream that ends without one reports ErrTruncated.
// Errors are sticky.
//
//pram:hotpath
func (r *Reader) Next() (*Frame, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.sawEOF {
		return nil, io.EOF
	}
	kind, payload, err := r.readFrame()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrTruncated
		}
		r.err = err
		return nil, err
	}
	f := &r.frame
	*f = Frame{Kind: kind,
		DedupStep: quorum.DedupStep{Reads: f.Reads[:0], ReaderOff: f.ReaderOff[:0],
			ReaderProcs: f.ReaderProcs[:0], Writes: f.Writes[:0]},
		LoadVals: f.LoadVals[:0]}
	switch kind {
	case kindLoad:
		err = r.decodeLoadFrame(payload, f)
	case kindStep:
		err = r.decodeStepFrame(payload, f)
	case kindBarrier:
		if len(payload) != 0 {
			//pram:coldalloc corrupt-input error exit
			err = corruptf("barrier frame carries %d payload bytes", len(payload))
		}
	case kindEOF:
		d := &decoder{buf: payload}
		f.Steps = int64(d.uvarint())
		f.Fingerprint = d.fixed64()
		if err = d.finish(); err == nil {
			r.sawEOF = true
		}
	case kindHeader:
		err = corruptf("duplicate header frame")
	default:
		//pram:coldalloc corrupt-input error exit
		err = corruptf("unknown frame kind %#x", kind)
	}
	if err != nil {
		r.err = err
		return nil, err
	}
	return f, nil
}

// decodeLoadFrame parses and validates a load frame.
func (r *Reader) decodeLoadFrame(payload []byte, f *Frame) error {
	d := &decoder{buf: payload}
	f.Lane = int(d.uvarint())
	f.LoadBase = model.Addr(d.uvarint())
	n := d.count(1)
	if d.err != nil {
		return d.err
	}
	// The < 0 arm matters: a uvarint ≥ 2^63 wraps negative through the
	// int cast and would index the replayer's lane arrays out of range.
	if f.Lane < 0 || f.Lane >= r.spec.Lanes {
		return corruptf("load frame lane %d outside [0,%d)", f.Lane, r.spec.Lanes)
	}
	// Compared as base > mem−n, not base+n > mem: a base near 2^63 would
	// wrap the sum negative and pass.
	if f.LoadBase < 0 || f.LoadBase > r.mem-n {
		return corruptf("load frame of %d values at base %d outside memory [0,%d)", n, f.LoadBase, r.mem)
	}
	f.LoadVals = growCap(f.LoadVals, n)
	for i := 0; i < n; i++ {
		f.LoadVals = append(f.LoadVals, model.Word(d.varint()))
	}
	return d.finish()
}

// decodeStepFrame parses and validates a step frame: every processor id in
// [0, Procs), every variable id in [0, mem), reader runs ascending.
//
//pram:hotpath
func (r *Reader) decodeStepFrame(payload []byte, f *Frame) error {
	d := &decoder{buf: payload}
	f.Lane = int(d.uvarint())
	nReads := d.count(3)  // ≥ dProc + dVar + readerCount bytes each
	nWrites := d.count(3) // ≥ dProc + dVar + value bytes each
	if d.err != nil {
		return d.err
	}
	if f.Lane < 0 || f.Lane >= r.spec.Lanes { // < 0: uvarint wrapped the int cast
		//pram:coldalloc corrupt-input error exit
		return corruptf("step frame lane %d outside [0,%d)", f.Lane, r.spec.Lanes)
	}
	procs := r.spec.Procs
	f.Reads = growCap(f.Reads, nReads)
	f.ReaderOff = growCap(f.ReaderOff, nReads+1)
	f.Writes = growCap(f.Writes, nWrites)
	prevProc, prevVar := int64(0), int64(0)
	for g := 0; g < nReads; g++ {
		proc := prevProc + d.varint()
		v := prevVar + d.varint()
		prevProc, prevVar = proc, v
		if d.err != nil {
			return d.err
		}
		if proc < 0 || proc >= int64(procs) {
			//pram:coldalloc corrupt-input error exit
			return corruptf("read %d names processor %d outside [0,%d)", g, proc, procs)
		}
		if v < 0 || v >= int64(r.mem) {
			//pram:coldalloc corrupt-input error exit
			return corruptf("read %d names variable %d outside [0,%d)", g, v, r.mem)
		}
		f.Reads = append(f.Reads, quorum.Request{Proc: int(proc), Var: int(v)})
		f.ReaderOff = append(f.ReaderOff, int32(len(f.ReaderProcs)))
		extra := d.count(1)
		if d.err != nil {
			return d.err
		}
		f.ReaderProcs = append(f.ReaderProcs, int32(proc))
		reader := proc
		for e := 0; e < extra; e++ {
			dv := d.uvarint()
			if d.err != nil {
				return d.err
			}
			// Bound the delta before adding so a corrupt value cannot
			// overflow the running reader id past the range check.
			if dv > uint64(procs) || reader+int64(dv) >= int64(procs) {
				//pram:coldalloc corrupt-input error exit
				return corruptf("read %d reader delta %d leaves [0,%d)", g, dv, procs)
			}
			reader += int64(dv)
			f.ReaderProcs = append(f.ReaderProcs, int32(reader))
		}
	}
	f.ReaderOff = append(f.ReaderOff, int32(len(f.ReaderProcs)))
	prevProc, prevVar = 0, 0
	for g := 0; g < nWrites; g++ {
		proc := prevProc + d.varint()
		v := prevVar + d.varint()
		prevProc, prevVar = proc, v
		val := d.varint()
		if d.err != nil {
			return d.err
		}
		if proc < 0 || proc >= int64(procs) {
			//pram:coldalloc corrupt-input error exit
			return corruptf("write %d names processor %d outside [0,%d)", g, proc, procs)
		}
		if v < 0 || v >= int64(r.mem) {
			//pram:coldalloc corrupt-input error exit
			return corruptf("write %d names variable %d outside [0,%d)", g, v, r.mem)
		}
		f.Writes = append(f.Writes, quorum.Request{Proc: int(proc), Var: int(v), Write: true, Value: model.Word(val)})
	}
	f.Costs = StepCosts{
		Time:             int64(d.uvarint()),
		Phases:           int(d.uvarint()),
		CopyAccesses:     int64(d.uvarint()),
		NetworkCycles:    int64(d.uvarint()),
		ModuleContention: int(d.uvarint()),
		ValuesHash:       d.fixed64(),
		Err:              d.byte() != 0,
	}
	return d.finish()
}

// growCap returns buf emptied with capacity for at least n more elements.
func growCap[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// --- Replayer ------------------------------------------------------------

// Summary accumulates what a replay run saw and (in verify mode) checked.
type Summary struct {
	Steps  int64 // step frames executed
	Rounds int64 // rounds: barriers in a multi-lane trace, steps in a single-lane one
	Loads  int64 // load frames applied

	SimTime       int64 // sum of recorded per-step times, as replayed
	Phases        int64
	CopyAccesses  int64
	NetworkCycles int64
	MaxContention int

	RecordedErrSteps int64 // steps whose recorded report carried an error
	ReplayErrSteps   int64 // steps whose replayed report carried an error

	// Verify-mode results.
	Mismatches          int64
	MismatchDetail      []string // first few, for diagnostics
	FingerprintChecked  bool
	FingerprintOK       bool
	RecordedFingerprint uint64
	ReplayFingerprint   uint64
}

// ok reports whether a verify run passed.
func (s *Summary) VerifyOK() bool {
	return s.Mismatches == 0 && (!s.FingerprintChecked || s.FingerprintOK)
}

// Replayer streams a trace into freshly built machines. Open pays machine
// construction once; Step/Run then run each recorded post-dedup step on
// its lane's machine as they read it — no program coordinator, no
// sort/dedup — which is what makes n ≥ 4096 sweeps routine.
type Replayer struct {
	// Verify compares every replayed step's costs and Values hash against
	// the recorded ones and, at eof, the store fingerprint. Mismatches
	// accumulate in the Summary (capped detail strings) rather than
	// aborting the run.
	Verify bool

	r         *Reader
	built     *core.Built
	sum       Summary
	passSteps int64 // step frames executed this pass (reset by Reset)

	// roundSet marks the lanes the open round of a multi-lane trace has
	// run.
	roundSet []bool
}

// Open reads a trace's header from src and builds its machines. The
// returned Replayer is positioned at the first post-header frame.
func Open(src io.Reader) (*Replayer, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	spec := r.Spec()
	built, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// Cross-check the header's derived parameters against the fresh
	// build: a mismatch means the parameter derivation drifted between
	// recorder and replayer versions and every recorded cost would be
	// wrong for this machine.
	if built.Params.Mem != r.hdrMem || built.Params.M != r.hdrModules ||
		built.Params.R() != r.hdrRedundancy || built.Side != r.hdrSide {
		return nil, corruptf(
			"header derivation mismatch: trace (m=%d M=%d r=%d side=%d) vs build (m=%d M=%d r=%d side=%d)",
			r.hdrMem, r.hdrModules, r.hdrRedundancy, r.hdrSide,
			built.Params.Mem, built.Params.M, built.Params.R(), built.Side)
	}
	if fp := built.Store.Fingerprint(); fp != r.startFP {
		return nil, corruptf("start fingerprint mismatch: trace %x vs fresh store %x (store was modified before recording started?)", r.startFP, fp)
	}
	return &Replayer{r: r, built: built, roundSet: make([]bool, spec.Lanes)}, nil
}

// Spec returns the trace's machine spec.
func (rp *Replayer) Spec() core.Spec { return rp.built.Spec }

// Built exposes the constructed machines (for drivers and benchmarks).
func (rp *Replayer) Built() *core.Built { return rp.built }

// Summary returns the accumulated run summary.
func (rp *Replayer) Summary() Summary { return rp.sum }

// Reset rewinds the replayer onto a fresh stream of the same trace for
// another pass, keeping the built machines (construction stays amortized)
// and the accumulated summary. The store is NOT reset: replaying a trace
// with writes twice diverges from the recorded stamps, so verified
// multi-pass runs are for read-only traces (cost verification of write
// traces still holds — costs do not depend on cell contents).
func (rp *Replayer) Reset(src io.Reader) error {
	if err := rp.r.Reset(src); err != nil {
		return err
	}
	clear(rp.roundSet)
	rp.passSteps = 0
	return nil
}

// Step reads frames up to the next step frame, applying load frames and
// closing rounds at barriers on the way, runs that step on its lane's
// machine and returns the lane and the step's report (which aliases the
// machine's scratch until its next step). At the eof frame it checks the
// step count and, in verify mode, the final store fingerprint, and
// returns io.EOF.
//
//pram:hotpath
func (rp *Replayer) Step() (lane int, rep model.StepReport, err error) {
	multi := rp.built.Spec.Lanes > 1
	for {
		f, err := rp.r.Next()
		if err != nil {
			return 0, rep, err
		}
		switch f.Kind {
		case KindLoad:
			for i, v := range f.LoadVals {
				rp.built.Store.LoadCell(f.LoadBase+i, v)
			}
			rp.sum.Loads++
		case KindStep:
			if !multi {
				rp.sum.Rounds++
			} else if rp.roundSet[f.Lane] {
				//pram:coldalloc corrupt-input error exit
				return 0, rep, corruptf("round records lane %d twice", f.Lane)
			} else {
				rp.roundSet[f.Lane] = true
			}
			rep = rp.built.Lane(f.Lane).ExecuteDedupStep(f.DedupStep)
			rp.noteStep(&rep, &f.Costs)
			return f.Lane, rep, nil
		case KindBarrier:
			if !multi {
				return 0, rep, corruptf("barrier frame in a single-lane trace")
			}
			if !slices.Contains(rp.roundSet, true) {
				return 0, rep, corruptf("round barrier after no step frames")
			}
			clear(rp.roundSet)
			rp.sum.Rounds++
		case KindEOF:
			if slices.Contains(rp.roundSet, true) {
				return 0, rep, corruptf("eof frame inside an unfinished round")
			}
			if f.Steps != rp.passSteps {
				//pram:coldalloc corrupt-input error exit
				return 0, rep, corruptf("eof frame counts %d steps, replayed %d", f.Steps, rp.passSteps)
			}
			if rp.Verify {
				rp.sum.FingerprintChecked = true
				rp.sum.RecordedFingerprint = f.Fingerprint
				rp.sum.ReplayFingerprint = rp.built.Store.Fingerprint()
				rp.sum.FingerprintOK = rp.sum.ReplayFingerprint == rp.sum.RecordedFingerprint
				if !rp.sum.FingerprintOK {
					//pram:coldalloc verify-mismatch reporting path, cold unless the trace already failed
					rp.mismatch(fmt.Sprintf("final store fingerprint %x, recorded %x",
						rp.sum.ReplayFingerprint, rp.sum.RecordedFingerprint))
				}
			}
			return 0, rep, io.EOF
		}
	}
}

// Run replays every remaining frame and returns the summary. A verify
// run's result is in Summary.VerifyOK, not the error (which reports
// stream-level problems only).
func (rp *Replayer) Run() (Summary, error) {
	for {
		if _, _, err := rp.Step(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return rp.sum, err
		}
	}
}

// noteStep accumulates one replayed step and verifies it when enabled.
func (rp *Replayer) noteStep(rep *model.StepReport, recorded *StepCosts) {
	rp.sum.Steps++
	rp.passSteps++
	rp.sum.SimTime += rep.Time
	rp.sum.Phases += int64(rep.Phases)
	rp.sum.CopyAccesses += rep.CopyAccesses
	rp.sum.NetworkCycles += rep.NetworkCycles
	if rep.ModuleContention > rp.sum.MaxContention {
		rp.sum.MaxContention = rep.ModuleContention
	}
	if recorded.Err {
		rp.sum.RecordedErrSteps++
	}
	if rep.Err != nil {
		rp.sum.ReplayErrSteps++
	}
	if !rp.Verify {
		return
	}
	got := costsOf(rep)
	if got.Time != recorded.Time || got.Phases != recorded.Phases ||
		got.CopyAccesses != recorded.CopyAccesses || got.NetworkCycles != recorded.NetworkCycles ||
		got.ModuleContention != recorded.ModuleContention || got.ValuesHash != recorded.ValuesHash {
		rp.mismatch(fmt.Sprintf(
			"step %d: replayed (t=%d ph=%d cp=%d cyc=%d cont=%d vh=%x) vs recorded (t=%d ph=%d cp=%d cyc=%d cont=%d vh=%x)",
			rp.sum.Steps-1,
			got.Time, got.Phases, got.CopyAccesses, got.NetworkCycles, got.ModuleContention, got.ValuesHash,
			recorded.Time, recorded.Phases, recorded.CopyAccesses, recorded.NetworkCycles, recorded.ModuleContention, recorded.ValuesHash))
	}
}

// mismatch records a verification failure, keeping the first few details.
func (rp *Replayer) mismatch(detail string) {
	rp.sum.Mismatches++
	if len(rp.sum.MismatchDetail) < 8 {
		rp.sum.MismatchDetail = append(rp.sum.MismatchDetail, detail)
	}
}
