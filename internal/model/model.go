// Package model defines the vocabulary shared by every machine model in the
// repository: memory words, access requests, conflict-resolution modes, the
// per-step cost report, and the Backend interface that all P-RAM simulators
// (ideal, MPC, DMMPC, 2DMOT, IDA, hashing) implement.
//
// A P-RAM step is a batch of at most one memory request per processor.
// Reads observe the memory state at the start of the step; writes commit at
// the end of the step. Concurrent-write conflicts are resolved by the
// backend's configured Mode (Priority: the lowest processor id wins).
package model

import (
	"fmt"
	"strings"
)

// Word is the unit of P-RAM shared memory. The paper's machines are
// word-oriented RAMs; 64-bit words are a faithful modern rendering.
type Word = int64

// Addr is an index into the shared address space [0, m).
type Addr = int

// Op distinguishes the kinds of memory requests a processor can issue in a
// step.
type Op uint8

const (
	// OpNone marks a processor that performs only local computation this
	// step (or has halted).
	OpNone Op = iota
	// OpRead fetches a shared-memory word.
	OpRead
	// OpWrite stores a shared-memory word.
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mode selects the P-RAM read/write conflict convention. The paper's
// simulations carry over to any variant; the conflict rules below are
// enforced (EREW, CREW) or resolved (CRCW) by the backends.
type Mode uint8

const (
	// EREW forbids two processors from touching the same cell in a step.
	EREW Mode = iota
	// CREW allows concurrent reads of a cell but exclusive writes.
	CREW
	// CRCWPriority allows concurrent reads and writes; among concurrent
	// writers to a cell the one with the lowest processor id succeeds.
	CRCWPriority
	// CRCWCommon allows concurrent writes only if all writers agree on the
	// value; disagreement is a program error.
	CRCWCommon
	// CRCWArbitrary allows concurrent writes; an arbitrary writer wins.
	// Deterministically rendered here as the highest processor id, so that
	// it is distinguishable from Priority in tests.
	CRCWArbitrary
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCWPriority:
		return "CRCW-priority"
	case CRCWCommon:
		return "CRCW-common"
	case CRCWArbitrary:
		return "CRCW-arbitrary"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// modeSpellings maps every accepted CLI spelling, lower-cased, to its
// mode. It holds each Mode.String() form, so a printed mode parses back.
var modeSpellings = []struct {
	name string
	mode Mode
}{
	{"erew", EREW},
	{"crew", CREW},
	{"crcw", CRCWPriority}, {"crcw-priority", CRCWPriority}, {"priority", CRCWPriority},
	{"crcw-common", CRCWCommon}, {"common", CRCWCommon},
	{"crcw-arbitrary", CRCWArbitrary}, {"arbitrary", CRCWArbitrary},
}

// ParseMode maps a conflict-mode spelling, case-insensitively, to its
// Mode; any other input is an error listing the valid spellings.
func ParseMode(s string) (Mode, error) {
	for _, sp := range modeSpellings {
		if strings.EqualFold(s, sp.name) {
			return sp.mode, nil
		}
	}
	names := make([]string, len(modeSpellings))
	for i, sp := range modeSpellings {
		names[i] = sp.name
	}
	return 0, fmt.Errorf("unknown mode %q (want %s)", s, strings.Join(names, ", "))
}

// Request is one processor's memory action for a step.
type Request struct {
	Proc  int  // issuing processor id in [0, n): the request's batch index
	Op    Op   // read, write or none
	Addr  Addr // shared address, meaningful when Op != OpNone
	Value Word // payload, meaningful when Op == OpWrite
}

// Batch is the collection of requests forming one P-RAM step, at most one
// per processor (the Fortune–Wyllie P-RAM). Entries are indexed by
// processor id: an active entry i is processor i's request, so its Proc
// is i, and a batch holds at most n entries. A missing processor is
// represented by OpNone, whose Proc is ignored. Because the index is the
// processor, a batch lists its requests in ascending processor order,
// which is the order Priority and Arbitrary resolve writes in.
type Batch []Request

// NewBatch returns an all-idle batch for n processors.
func NewBatch(n int) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = Request{Proc: i, Op: OpNone}
	}
	return b
}

// Reads reports the number of read requests in the batch.
func (b Batch) Reads() int {
	k := 0
	for _, r := range b {
		if r.Op == OpRead {
			k++
		}
	}
	return k
}

// Writes reports the number of write requests in the batch.
func (b Batch) Writes() int {
	k := 0
	for _, r := range b {
		if r.Op == OpWrite {
			k++
		}
	}
	return k
}

// Active reports the number of non-idle requests in the batch.
func (b Batch) Active() int { return b.Reads() + b.Writes() }

// StepReport carries the simulated cost of executing one P-RAM step,
// together with the values satisfied reads produced.
type StepReport struct {
	// Values holds, indexed by processor id, the word each processor's
	// read returned; entries of processors that did not read are zero.
	// Backends may reuse the backing slice across steps, so the contents
	// are only valid until the next ExecuteStep call on the same backend —
	// copy them if they must outlive the step.
	Values []Word
	// Time is the simulated duration of the step in the backend's native
	// unit (1 for the ideal P-RAM, phases for module machines, network
	// cycles for the 2DMOT).
	Time int64
	// Phases is the number of protocol phases used by quorum backends
	// (0 for backends without a phase structure).
	Phases int
	// CopyAccesses counts individual variable-copy accesses performed.
	CopyAccesses int64
	// ModuleContention is the maximum number of requests any single memory
	// module had to serve during the step.
	ModuleContention int
	// NetworkCycles is the number of interconnect cycles consumed
	// (2DMOT backends only; 0 elsewhere).
	NetworkCycles int64
	// Err records a detected conflict-discipline violation (EREW/CREW/
	// CRCW-common), if any. The step still executes under Priority rules.
	Err error
}

// Backend is a machine that can execute P-RAM steps. Implementations must
// preserve P-RAM semantics exactly (reads see pre-step state, writes commit
// at step end, conflicts resolved per the backend's Mode) while charging
// their own model-specific cost.
type Backend interface {
	// Name identifies the machine model for reports.
	Name() string
	// MemSize returns m, the number of shared cells.
	MemSize() int
	// Procs returns n, the number of processors.
	Procs() int
	// ExecuteStep runs one P-RAM step. The batch follows Batch's
	// contract: at most Procs() entries, an active entry i being
	// processor i's request. A backend may refuse a batch that breaks
	// it with a panic naming the offending entry.
	ExecuteStep(batch Batch) StepReport
	// ReadCell inspects the current committed value of a cell without
	// charging simulated time (for result verification and debugging).
	ReadCell(a Addr) Word
	// LoadCells initializes shared memory contents without charging
	// simulated time (for workload setup).
	LoadCells(base Addr, vals []Word)
}

// ConflictError describes a violation of the configured conflict mode.
type ConflictError struct {
	Mode  Mode
	Addr  Addr
	Procs []int // offending processor ids, ascending
	Kind  string
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("%s violation: %s of cell %d by processors %v",
		e.Mode, e.Kind, e.Addr, e.Procs)
}

// FNVOffset is the FNV-1a 64-bit offset basis, the hash of no words.
const FNVOffset uint64 = 14695981039346656037

// FoldFNV folds the eight bytes of w, least significant first, into the
// FNV-1a 64-bit hash h. Folding words one at a time from FNVOffset is the
// one digest behind store fingerprints, trace Values hashes and the
// serving front end's report hashes.
func FoldFNV(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * 1099511628211
		w >>= 8
	}
	return h
}
