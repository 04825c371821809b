package replay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
)

// drainTrace opens and fully replays a byte stream, returning the first
// error. It is the whole attack surface of the read path: Open (magic,
// header, machine build) plus every frame decode and engine feed.
func drainTrace(data []byte) error {
	rp, err := Open(bytes.NewReader(data))
	if err != nil {
		return err
	}
	rp.Verify = true
	_, err = rp.Run()
	return err
}

// smallTrace records the seed-corpus trace: small enough to mutate
// exhaustively, covering loads, reads, writes and multi-reader fan-out.
func smallTrace(t testing.TB) []byte {
	cfg := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 8, Mode: model.CRCWPriority}
	built, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	LoadImage(built, 8, 3)
	gen := NewGenerator(Uniform, 1, 8, built.Params.Mem, 11)
	for s := 0; s < 4; s++ {
		built.Machine.ExecuteStep(gen.Step(s)[0])
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame appends a fully framed rendering of (kind, payload) to dst.
func frame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, frameCRC(kind, payload))
}

// poolTrace is a small multi-lane seed (barrier frames, lane layout).
func poolTrace(t testing.TB) []byte {
	data, _, _ := recordRun(t, core.Spec{Kind: core.KindDMMPC, Lanes: 2, Procs: 8, Mode: model.CRCWPriority}, Banded, 3, 8)
	return data
}

// giantHeader is a well-formed PRAMTRC1 preamble whose header names a
// DMMPC with 16000 processors at the default k = 2 and ε = 1: within the
// reader's dimension bounds, but m = 2.56·10^8 variables at r = 7, about
// 34 GiB of map and cells if built.
func giantHeader() []byte {
	spec := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16000, Mode: model.CRCWPriority, Seed: 1, KExp: 2, Gran: 1}
	built := &core.Built{Spec: spec, Params: memmap.LemmaTwo(spec.Procs, spec.KExp, spec.Gran)}
	return frame(append([]byte(nil), magic[:]...), kindHeader, encodeHeader(nil, built, 0))
}

// TestOpenRejectsGiantHeader: Open refuses the giant header with the build
// budget error before it allocates anything large.
func TestOpenRejectsGiantHeader(t *testing.T) {
	data := giantHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "over the build budget") {
		t.Fatalf("Open of a 16000-processor header: %v, want the build budget error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("the refused Open allocated %d bytes", grew)
	}
}

// TestTruncatedTraceRejected: every proper prefix of a valid trace must
// error (ErrTruncated or a corruption error), never panic, never verify.
func TestTruncatedTraceRejected(t *testing.T) {
	data := smallTrace(t)
	for cut := 0; cut < len(data); cut++ {
		err := drainTrace(data[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes replayed without error", cut, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: unexpected error class: %v", cut, err)
		}
	}
}

// TestBitFlippedTraceRejected: flipping any single bit must either surface
// an error or (for bits the format genuinely does not cover, of which
// there are none — the CRC spans every frame byte and the magic is
// compared) be detected. Exhaustive over the trace's bytes.
func TestBitFlippedTraceRejected(t *testing.T) {
	data := smallTrace(t)
	mut := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[pos] ^= 1 << bit
			if err := drainTrace(mut); err == nil {
				t.Fatalf("flipping byte %d bit %d went undetected", pos, bit)
			}
		}
	}
}

// TestCorruptPoolTraceRejected samples corruptions of a multi-lane trace
// (lane ids, barrier structure).
func TestCorruptPoolTraceRejected(t *testing.T) {
	data := poolTrace(t)
	mut := make([]byte, len(data))
	for pos := 0; pos < len(data); pos++ {
		copy(mut, data)
		mut[pos] ^= 0x41
		if err := drainTrace(mut); err == nil {
			t.Fatalf("corrupting byte %d of the pool trace went undetected", pos)
		}
	}
}

// splitFrames cuts a well-formed trace into its magic and its raw frames
// (kind byte through checksum).
func splitFrames(data []byte) (head []byte, frames [][]byte) {
	head, rest := data[:len(magic)], data[len(magic):]
	for len(rest) > 0 {
		length, n := binary.Uvarint(rest[1:])
		end := 1 + n + int(length) + 4
		frames = append(frames, rest[:end])
		rest = rest[end:]
	}
	return head, frames
}

// TestRoundStructureRejected: CRC-correct traces whose frames break the
// round structure are refused as corrupt. A round names each lane at most
// once and is closed by a barrier before eof; a single-lane trace has no
// barriers; a barrier closes at least one step; eof counts every step.
func TestRoundStructureRejected(t *testing.T) {
	pool, _, poolFP := recordRun(t, core.Spec{Kind: core.KindDMMPC, Lanes: 2, Procs: 8, Mode: model.CRCWPriority}, Banded, 3, 0)
	head, frames := splitFrames(pool)
	// frames: header, then per round step(0) step(1) barrier, then eof.
	barrier := frame(nil, kindBarrier, nil)
	join := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{head}, parts...), nil)
	}
	rest := func(from int) []byte { return bytes.Join(frames[from:], nil) }
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"lane twice", join(frames[0], frames[1], frames[1], rest(2)), "lane 0 twice"},
		{"no closing barrier", join(bytes.Join(frames[:len(frames)-2], nil), frames[len(frames)-1]), "unfinished round"},
		{"empty round", join(frames[0], barrier, rest(1)), "no step frames"},
		{"eof count", join(bytes.Join(frames[:len(frames)-1], nil), frame(nil, kindEOF, encodeEOF(nil, 7, poolFP))), "counts 7 steps, replayed 6"},
	} {
		if err := drainTrace(c.data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want a corrupt-trace error naming %q", c.name, err, c.want)
		}
	}

	head, frames = splitFrames(smallTrace(t))
	last := len(frames) - 1
	data := join(bytes.Join(frames[:last], nil), barrier, frames[last])
	if err := drainTrace(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "single-lane") {
		t.Errorf("barrier in a single-lane trace: %v, want a corrupt-trace error", err)
	}
}

// TestOverflowedLaneRejected crafts a structurally valid (CRC-correct)
// step frame whose lane uvarint is 2^63 — wrapping negative through the
// int cast — and asserts the reader rejects it instead of indexing the
// replayer's lane arrays out of range (regression: this used to panic).
func TestOverflowedLaneRejected(t *testing.T) {
	data := poolTrace(t)
	// Locate the first step frame and rewrite its payload with the huge
	// lane, re-framing it with a valid CRC.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var stepPayload []byte
	for stepPayload == nil {
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindStep {
			// Re-encode the frame from the decoded view with lane 2^63.
			p := binary.AppendUvarint(nil, 1<<63)
			p = binary.AppendUvarint(p, uint64(len(f.Reads)))
			p = binary.AppendUvarint(p, uint64(len(f.Writes)))
			prevProc, prevVar := int64(0), int64(0)
			for g := range f.Reads {
				p = binary.AppendVarint(p, int64(f.Reads[g].Proc)-prevProc)
				p = binary.AppendVarint(p, int64(f.Reads[g].Var)-prevVar)
				prevProc, prevVar = int64(f.Reads[g].Proc), int64(f.Reads[g].Var)
				p = binary.AppendUvarint(p, 0) // drop extra readers
			}
			for g := range f.Writes {
				p = binary.AppendVarint(p, int64(f.Writes[g].Proc)-prevProc)
				p = binary.AppendVarint(p, int64(f.Writes[g].Var)-prevVar)
				prevProc, prevVar = int64(f.Writes[g].Proc), int64(f.Writes[g].Var)
				p = binary.AppendVarint(p, int64(f.Writes[g].Value))
			}
			p = binary.AppendUvarint(p, uint64(f.Costs.Time))
			p = binary.AppendUvarint(p, uint64(f.Costs.Phases))
			p = binary.AppendUvarint(p, uint64(f.Costs.CopyAccesses))
			p = binary.AppendUvarint(p, uint64(f.Costs.NetworkCycles))
			p = binary.AppendUvarint(p, uint64(f.Costs.ModuleContention))
			p = appendFixed64(p, f.Costs.ValuesHash)
			p = append(p, 0)
			stepPayload = p
		}
	}
	// Reassemble the file: magic + header frame (copied verbatim) + the
	// crafted frame.
	hdrEnd := len(magic)
	d := data[hdrEnd:]
	// kind byte + length uvarint + payload + 4-byte CRC
	length, n := binary.Uvarint(d[1:])
	hdrEnd += 1 + n + int(length) + 4
	crafted := append([]byte(nil), data[:hdrEnd]...)
	crafted = frame(crafted, kindStep, stepPayload)
	err = drainTrace(crafted)
	if err == nil {
		t.Fatal("overflowed lane accepted")
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("unexpected error class: %v", err)
	}
}

// overflowedLoadTrace splices a CRC-correct load frame right after
// smallTrace's header: lane 0, base 2^63−2, four values, so base + count
// wraps negative through int arithmetic.
func overflowedLoadTrace(t testing.TB) []byte {
	head, frames := splitFrames(smallTrace(t))
	p := binary.AppendUvarint(nil, 0)
	p = binary.AppendUvarint(p, 1<<63-2)
	p = binary.AppendUvarint(p, 4)
	for v := int64(1); v <= 4; v++ {
		p = binary.AppendVarint(p, v)
	}
	data := append(append([]byte(nil), head...), frames[0]...)
	data = frame(data, kindLoad, p)
	return append(data, bytes.Join(frames[1:], nil)...)
}

// TestOverflowedLoadBaseRejected: a load frame whose base plus count
// overflows is refused as corrupt by the reader instead of reaching the
// replayer, which would index the store out of range (regression: this
// used to panic).
func TestOverflowedLoadBaseRejected(t *testing.T) {
	err := drainTrace(overflowedLoadTrace(t))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside memory") {
		t.Fatalf("load frame at base 2^63-2: %v, want a corrupt-trace error naming the memory range", err)
	}
}

// FuzzReadTraceFile: arbitrary bytes, seeded with valid traces and
// systematic mutations, must never panic, never over-allocate, and never
// silently misread; only clean traces verify.
func FuzzReadTraceFile(f *testing.F) {
	valid := smallTrace(f)
	f.Add(valid)
	f.Add(poolTrace(f))
	f.Add([]byte{})
	f.Add(magic[:])
	// A few structured mutants to aim the fuzzer at frame internals.
	for _, pos := range []int{8, 9, 20, len(valid) / 2, len(valid) - 5} {
		m := append([]byte(nil), valid...)
		m[pos] ^= 0xff
		f.Add(m)
	}
	f.Add(append(append([]byte(nil), valid...), valid...)) // trailing garbage
	f.Add(giantHeader())
	f.Add(overflowedLoadTrace(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := drainTrace(data)
		if err != nil {
			return // rejected: fine. The property is no panic, no misread.
		}
		// Accepted streams must re-read deterministically (a structurally
		// valid trace whose embedded costs mismatch is REPORTED, in the
		// summary, not a reader defect — but reading it twice must agree).
		rp, err := Open(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted stream failed to re-open: %v", err)
		}
		if _, err := rp.Run(); err != nil {
			t.Fatalf("accepted stream failed on re-read: %v", err)
		}
	})
}
