package replay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// magic identifies a trace file; the trailing byte is the format version.
var magic = [8]byte{'P', 'R', 'A', 'M', 'T', 'R', 'C', '1'}

// formatVersion is written into the header frame (redundantly with the
// magic's version byte) so readers can give a precise error on mismatch.
const formatVersion = 1

// Frame kinds. See the package doc's format section.
const (
	kindHeader  byte = 0x01
	kindLoad    byte = 0x02
	kindStep    byte = 0x03
	kindBarrier byte = 0x04
	kindEOF     byte = 0x05
)

// maxFramePayload caps a frame's declared payload length so a corrupted
// length varint cannot drive allocation or blocking reads. 256 MiB
// comfortably covers the largest legitimate frame (a LoadCells image
// chunk).
const maxFramePayload = 1 << 28

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kindCRC[b] is the CRC-32C state after processing the single byte b —
// precomputed so frameCRC needs no per-call byte slice (the read path is
// allocation-free).
var kindCRC = func() (t [256]uint32) {
	var b [1]byte
	for i := range t {
		b[0] = byte(i)
		t[i] = crc32.Update(0, castagnoli, b[:])
	}
	return t
}()

// frameCRC computes the checksum covering a frame's kind byte and payload.
func frameCRC(kind byte, payload []byte) uint32 {
	return crc32.Update(kindCRC[kind], castagnoli, payload)
}

// ErrTruncated reports a stream that ended before its eof frame.
var ErrTruncated = errors.New("replay: trace truncated (no eof frame)")

// ErrCorrupt is wrapped by every integrity failure (bad magic, checksum
// mismatch, malformed varints, out-of-range ids), so callers can
// distinguish corruption from I/O errors with errors.Is.
var ErrCorrupt = errors.New("replay: corrupt trace")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// StepCosts is the per-step verification record embedded at record time:
// the recorded StepReport's cost scalars plus an FNV-1a hash of its dense
// Values buffer. Replaying the step must reproduce all of them bit-for-bit
// (Err excepted — conflict-discipline violations are a dedup-layer
// property replay does not re-check, so Err only tracks protocol stalls on
// both sides; it is reported, not verified).
type StepCosts struct {
	Time             int64
	Phases           int
	CopyAccesses     int64
	NetworkCycles    int64
	ModuleContention int
	ValuesHash       uint64
	Err              bool
}

// costsOf extracts the verification record from a report.
func costsOf(rep *model.StepReport) StepCosts {
	return StepCosts{
		Time:             rep.Time,
		Phases:           rep.Phases,
		CopyAccesses:     rep.CopyAccesses,
		NetworkCycles:    rep.NetworkCycles,
		ModuleContention: rep.ModuleContention,
		ValuesHash:       HashValues(rep.Values),
		Err:              rep.Err != nil,
	}
}

// HashValues fingerprints a step's dense Values buffer with FNV-1a — the
// per-step analogue of Store.Fingerprint, covering what reads returned the
// way the final fingerprint covers what writes left behind.
func HashValues(values []model.Word) uint64 {
	h := model.FNVOffset
	for _, v := range values {
		h = model.FoldFNV(h, uint64(v))
	}
	return h
}

// --- encoding ------------------------------------------------------------

// appendFixed64 appends a little-endian 8-byte word.
func appendFixed64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// encodeHeader renders the header frame payload from a normalized spec
// and the derived validation fields of its build.
func encodeHeader(buf []byte, b *core.Built, startFingerprint uint64) []byte {
	c := b.Spec
	buf = binary.AppendUvarint(buf, formatVersion)
	buf = append(buf, byte(c.Kind))
	buf = binary.AppendUvarint(buf, uint64(c.Lanes))
	buf = binary.AppendUvarint(buf, uint64(c.Procs))
	buf = append(buf, byte(c.Mode))
	buf = binary.AppendVarint(buf, c.Seed)
	buf = appendFixed64(buf, math.Float64bits(c.KExp))
	buf = appendFixed64(buf, math.Float64bits(c.Gran))
	var flags byte
	if c.DualRail {
		flags |= 1
	}
	if c.TwoStage {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = append(buf, byte(c.Policy))
	buf = binary.AppendUvarint(buf, uint64(c.Stage1Phases))
	buf = binary.AppendUvarint(buf, uint64(c.Stage2Bandwidth))
	// Derived validation fields: a reader rebuilds the machine from the
	// fields above and cross-checks these.
	buf = binary.AppendUvarint(buf, uint64(b.Params.Mem))
	buf = binary.AppendUvarint(buf, uint64(b.Params.M))
	buf = binary.AppendUvarint(buf, uint64(b.Params.R()))
	buf = binary.AppendUvarint(buf, uint64(b.Side))
	buf = appendFixed64(buf, startFingerprint)
	return buf
}

// encodeLoad renders a load frame payload.
func encodeLoad(buf []byte, lane int, base model.Addr, vals []model.Word) []byte {
	buf = binary.AppendUvarint(buf, uint64(lane))
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// encodeStep renders a step frame payload: the post-dedup step in delta
// form plus the verification costs.
func encodeStep(buf []byte, lane int, s quorum.DedupStep, costs StepCosts) []byte {
	reads, writes := s.Reads, s.Writes
	buf = binary.AppendUvarint(buf, uint64(lane))
	buf = binary.AppendUvarint(buf, uint64(len(reads)))
	buf = binary.AppendUvarint(buf, uint64(len(writes)))
	prevProc, prevVar := int64(0), int64(0)
	for g := range reads {
		buf = binary.AppendVarint(buf, int64(reads[g].Proc)-prevProc)
		buf = binary.AppendVarint(buf, int64(reads[g].Var)-prevVar)
		prevProc, prevVar = int64(reads[g].Proc), int64(reads[g].Var)
		run := s.ReaderProcs[s.ReaderOff[g]:s.ReaderOff[g+1]]
		// The run's first entry is the request's own representative
		// processor; only the extras are encoded, as ascending deltas.
		buf = binary.AppendUvarint(buf, uint64(len(run)-1))
		prev := int64(run[0])
		for _, p := range run[1:] {
			buf = binary.AppendUvarint(buf, uint64(int64(p)-prev))
			prev = int64(p)
		}
	}
	prevProc, prevVar = 0, 0
	for g := range writes {
		buf = binary.AppendVarint(buf, int64(writes[g].Proc)-prevProc)
		buf = binary.AppendVarint(buf, int64(writes[g].Var)-prevVar)
		prevProc, prevVar = int64(writes[g].Proc), int64(writes[g].Var)
		buf = binary.AppendVarint(buf, int64(writes[g].Value))
	}
	buf = binary.AppendUvarint(buf, uint64(costs.Time))
	buf = binary.AppendUvarint(buf, uint64(costs.Phases))
	buf = binary.AppendUvarint(buf, uint64(costs.CopyAccesses))
	buf = binary.AppendUvarint(buf, uint64(costs.NetworkCycles))
	buf = binary.AppendUvarint(buf, uint64(costs.ModuleContention))
	buf = appendFixed64(buf, costs.ValuesHash)
	if costs.Err {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// encodeEOF renders the eof frame payload.
func encodeEOF(buf []byte, steps int64, fingerprint uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(steps))
	buf = appendFixed64(buf, fingerprint)
	return buf
}

// --- decoding ------------------------------------------------------------

// decoder is a bounds-checked cursor over one frame's payload. All methods
// are safe on corrupt input: they latch an error and return zero values.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("malformed uvarint at payload offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("malformed varint at payload offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count decodes a uvarint element count and sanity-bounds it by the bytes
// that could possibly encode that many elements (each costs at least min
// bytes), so a corrupt count cannot drive allocation.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if limit := uint64(len(d.buf)-d.pos) / uint64(minBytes); v > limit {
		d.fail("element count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("payload truncated at offset %d", d.pos)
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("payload truncated at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

// finish errors on trailing garbage.
func (d *decoder) finish() error {
	if d.err == nil && d.pos != len(d.buf) {
		d.fail("%d trailing payload bytes", len(d.buf)-d.pos)
	}
	return d.err
}

// decodeHeader parses a header payload into a spec plus the derived
// validation fields.
func decodeHeader(payload []byte) (spec core.Spec, mem, modules, redundancy, side int, startFP uint64, err error) {
	d := &decoder{buf: payload}
	if v := d.uvarint(); d.err == nil && v != formatVersion {
		return spec, 0, 0, 0, 0, 0, corruptf("format version %d, this reader speaks %d", v, formatVersion)
	}
	spec.Kind = core.Kind(d.byte())
	spec.Lanes = int(d.uvarint())
	spec.Procs = int(d.uvarint())
	spec.Mode = model.Mode(d.byte())
	spec.Seed = d.varint()
	spec.KExp = math.Float64frombits(d.fixed64())
	spec.Gran = math.Float64frombits(d.fixed64())
	flags := d.byte()
	spec.DualRail = flags&1 != 0
	spec.TwoStage = flags&2 != 0
	spec.Policy = mot.Policy(d.byte())
	spec.Stage1Phases = int(d.uvarint())
	spec.Stage2Bandwidth = int(d.uvarint())
	mem = int(d.uvarint())
	modules = int(d.uvarint())
	redundancy = int(d.uvarint())
	side = int(d.uvarint())
	startFP = d.fixed64()
	if err := d.finish(); err != nil {
		return spec, 0, 0, 0, 0, 0, err
	}
	const sane = 1 << 40 // bound header dimensions before they reach Build
	if spec.Lanes < 1 || spec.Lanes > 1<<20 || spec.Procs < 1 || spec.Procs > sane ||
		mem < 1 || mem > sane || flags > 3 ||
		math.IsNaN(spec.KExp) || math.IsInf(spec.KExp, 0) ||
		math.IsNaN(spec.Gran) || math.IsInf(spec.Gran, 0) {
		return spec, 0, 0, 0, 0, 0, corruptf("implausible header dimensions (lanes=%d procs=%d mem=%d)", spec.Lanes, spec.Procs, mem)
	}
	return spec, mem, modules, redundancy, side, startFP, nil
}
