package machine_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/ideal"
	"repro/internal/machine"
	"repro/internal/model"
)

// The oracle below checks the step loop against the P-RAM's definition
// instead of against itself: processor i's t-th action is its request in
// step t, and a processor that has run out of actions halts (reporting its
// panic, if any) at the step after its last one, in ascending id order.

const oracleCells = 8 // small, so that scripts collide and break EREW/CREW

var oracleModes = []model.Mode{model.EREW, model.CREW, model.CRCWCommon, model.CRCWPriority}

// How a script ends once its actions are done.
const (
	endReturn   = iota
	endPanic    // panic("boom <id>")
	endBadRead  // Read of cell oracleCells: outside shared memory
	endBadWrite // Write of cell -1: outside shared memory
	numEnds
)

// An action is one scripted step. A Write stores val plus the value of the
// processor's latest Read, so a Read that returns the wrong value, or at
// the wrong step, shows up in memory.
type action struct {
	op   model.Op
	addr model.Addr
	val  model.Word
}

type script struct {
	acts []action
	end  int
}

// decodeScripts turns fuzz input into a conflict mode and 1..8 processor
// scripts. Byte 0 picks the processor count, byte 1 the mode; then each
// processor has a length byte, that many action bytes and an end byte.
// Input that runs out reads as zeros.
func decodeScripts(data []byte) (model.Mode, []script) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := next()%8 + 1
	mode := oracleModes[next()%len(oracleModes)]
	scripts := make([]script, n)
	for id := range scripts {
		acts := make([]action, next()%64)
		for t := range acts {
			b := next()
			acts[t] = action{op: []model.Op{model.OpRead, model.OpWrite, model.OpNone}[b%3],
				addr: b / 3 % oracleCells, val: model.Word(b / 24)}
		}
		scripts[id] = script{acts: acts, end: next() % numEnds}
	}
	return mode, scripts
}

// Builders for the seed corpus, in decodeScripts's encoding.
func rd(a int) byte { return byte(3 * a) }
func wr(a int) byte { return byte(3*a + 1) }

const sy = 2

func times(b byte, k int) []byte { return slices.Repeat([]byte{b}, k) }

// proc encodes one processor: its action bytes, then how it ends.
func proc(end int, acts ...[]byte) []byte {
	body := slices.Concat(acts...)
	return slices.Concat([]byte{byte(len(body))}, body, []byte{byte(end)})
}

func seed(n int, mode model.Mode, procs ...[]byte) []byte {
	return slices.Concat([]byte{byte(n - 1), byte(slices.Index(oracleModes, mode))}, slices.Concat(procs...))
}

// outcome is everything a run exposes: a hash of every step's batch, the
// RunReport's step count, panics and violations, and the final memory.
type outcome struct {
	batches    uint64
	steps      int64
	panics     []string
	violations []string
	memory     []model.Word
}

func (o outcome) equal(p outcome) bool {
	return o.batches == p.batches && o.steps == p.steps && slices.Equal(o.panics, p.panics) &&
		slices.Equal(o.violations, p.violations) && slices.Equal(o.memory, p.memory)
}

func hashBatch(h hash.Hash64, batch model.Batch) {
	var buf [25]byte
	for _, r := range batch {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Proc))
		buf[8] = byte(r.Op)
		binary.LittleEndian.PutUint64(buf[9:], uint64(r.Addr))
		binary.LittleEndian.PutUint64(buf[17:], uint64(r.Value))
		h.Write(buf[:])
	}
}

func newOracleMemory(n int, mode model.Mode) *ideal.PRAM {
	back := ideal.New(n, oracleCells, mode)
	init := make([]model.Word, oracleCells)
	for a := range init {
		init[a] = model.Word(100 + a)
	}
	back.LoadCells(0, init)
	return back
}

func finalMemory(back *ideal.PRAM) []model.Word {
	mem := make([]model.Word, oracleCells)
	for a := range mem {
		mem[a] = back.ReadCell(a)
	}
	return mem
}

func errorTexts(errs []error) []string {
	var out []string
	for _, err := range errs {
		out = append(out, err.Error())
	}
	return out
}

// hashing records the hash of every batch its backend executes.
type hashing struct {
	*ideal.PRAM
	h hash.Hash64
}

func (b *hashing) ExecuteStep(batch model.Batch) model.StepReport {
	hashBatch(b.h, batch)
	return b.PRAM.ExecuteStep(batch)
}

// runScripts runs the scripts as programs through machine.RunEach.
func runScripts(mode model.Mode, scripts []script) outcome {
	back := &hashing{PRAM: newOracleMemory(len(scripts), mode), h: fnv.New64a()}
	rep := machine.New(back).RunEach(func(id int) machine.Program {
		s := scripts[id]
		return func(p *machine.Proc) {
			var last model.Word
			for _, a := range s.acts {
				switch a.op {
				case model.OpRead:
					last = p.Read(a.addr)
				case model.OpWrite:
					p.Write(a.addr, a.val+last)
				default:
					p.Sync()
				}
			}
			switch s.end {
			case endPanic:
				panic(fmt.Sprintf("boom %d", id))
			case endBadRead:
				p.Read(oracleCells)
			case endBadWrite:
				p.Write(-1, 0)
			}
		}
	})
	return outcome{back.h.Sum64(), rep.Steps, errorTexts(rep.Panics),
		errorTexts(rep.Violations), finalMemory(back.PRAM)}
}

// interpret executes the scripts directly, one step per action index, on a
// second ideal P-RAM.
func interpret(mode model.Mode, scripts []script) outcome {
	back := newOracleMemory(len(scripts), mode)
	h := fnv.New64a()
	var o outcome
	last := make([]model.Word, len(scripts))
	for t := 0; ; t++ {
		batch := make(model.Batch, len(scripts))
		active := false
		for id, s := range scripts {
			batch[id] = model.Request{Proc: id, Op: model.OpNone}
			if t < len(s.acts) {
				a := s.acts[t]
				switch a.op {
				case model.OpRead:
					batch[id] = model.Request{Proc: id, Op: model.OpRead, Addr: a.addr}
				case model.OpWrite:
					batch[id] = model.Request{Proc: id, Op: model.OpWrite, Addr: a.addr, Value: a.val + last[id]}
				}
				active = true
				continue
			}
			if t > len(s.acts) {
				continue
			}
			switch s.end {
			case endPanic:
				o.panics = append(o.panics, fmt.Sprintf("processor %d panicked: boom %d", id, id))
			case endBadRead:
				o.panics = append(o.panics, fmt.Sprintf(
					"processor %d panicked: read of cell %d outside shared memory [0, %d)", id, oracleCells, oracleCells))
			case endBadWrite:
				o.panics = append(o.panics, fmt.Sprintf(
					"processor %d panicked: write of cell -1 outside shared memory [0, %d)", id, oracleCells))
			}
		}
		if !active {
			break
		}
		hashBatch(h, batch)
		sr := back.ExecuteStep(batch)
		o.steps++
		if sr.Err != nil {
			o.violations = append(o.violations, sr.Err.Error())
		}
		for id, r := range batch {
			if r.Op == model.OpRead {
				last[id] = sr.Values[id]
			}
		}
	}
	o.batches = h.Sum64()
	o.memory = finalMemory(back)
	return o
}

// FuzzLockstep compares machine.RunEach with the direct interpreter on
// random scripts of Reads, Writes and Syncs ending in a return, a panic or
// an out-of-range address.
func FuzzLockstep(f *testing.F) {
	// Panics after 3, 1 and 0 Syncs: step order is not id order.
	f.Add(seed(4, model.CREW,
		proc(endPanic, times(sy, 3)),
		proc(endPanic, times(sy, 1)),
		proc(endReturn, times(sy, 2)),
		proc(endBadRead, nil)))
	// A Write, then a panic: the Write still executes.
	f.Add(seed(3, model.EREW,
		proc(endPanic, []byte{wr(0)}),
		proc(endReturn, []byte{rd(0), wr(1)}),
		proc(endBadWrite, []byte{sy, wr(2)})))
	// Runs of Writes and Syncs far beyond any queue bound, each run
	// followed by a Read whose value the next Write carries.
	f.Add(seed(3, model.CRCWPriority,
		proc(endReturn, times(wr(0), 40), []byte{rd(0), wr(1)}),
		proc(endPanic, times(sy, 17), []byte{wr(2)}),
		proc(endBadRead, times(wr(3), 9), times(sy, 24), []byte{rd(3), wr(4)})))
	// Processors that never Read, colliding under EREW: violations.
	f.Add(seed(4, model.EREW,
		proc(endReturn, times(wr(5), 20)),
		proc(endReturn, times(sy, 5), times(wr(5), 30)),
		proc(endPanic, times(sy, 33)),
		proc(endBadWrite, times(wr(6), 16))))
	// Disagreeing common writes, and reads racing writes under CREW.
	f.Add(seed(3, model.CRCWCommon,
		proc(endReturn, []byte{wr(1), wr(1), rd(1), wr(1)}),
		proc(endReturn, []byte{wr(1) + 24, rd(1), wr(1)}),
		proc(endReturn, []byte{rd(2), sy, rd(1), wr(2)})))
	f.Add(seed(2, model.CREW,
		proc(endReturn, []byte{rd(7), wr(7), rd(7)}),
		proc(endPanic, []byte{wr(7), rd(7), wr(7)})))
	// Every processor halts at once, and a run with no steps at all.
	f.Add(seed(8, model.EREW))
	f.Add(seed(5, model.CRCWPriority,
		proc(endPanic, nil), proc(endReturn, nil), proc(endBadRead, nil),
		proc(endPanic, nil), proc(endBadWrite, nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		mode, scripts := decodeScripts(data)
		got, want := runScripts(mode, scripts), interpret(mode, scripts)
		if !got.equal(want) {
			t.Fatalf("RunEach and the interpreter disagree (%v, %d processors)\n got %+v\nwant %+v",
				mode, len(scripts), got, want)
		}
	})
}
