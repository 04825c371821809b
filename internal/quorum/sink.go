package quorum

import (
	"fmt"

	"repro/internal/model"
)

// StepSink observes the post-dedup request stream at the engine/pool
// boundary — the hook the trace record/replay subsystem (repro/internal/
// replay) captures machine runs through. After every live step it receives
// the step's post-dedup form, a DedupStep, and the step's cost report.
//
// The step and the report's Values alias machine scratch and are valid
// only for the duration of the call: a sink must encode or copy what it
// keeps. Sinks must not mutate any argument and must not call back into
// the machine.
//
// Every call comes from the goroutine driving the machine or pool, one at
// a time, in the order the steps ran. A single Machine calls RecordStep at
// the end of ExecuteStep. A Pool calls it once per shard (lane k is shard
// k, see Pool.SetStepSink) in ascending lane order, which is the order
// its shard steps ran, idle shards included, and then calls StepBarrier.
// A sink that renames lanes (the serving front end's shard-to-tenant
// sink) must keep that call order: replay runs the steps in it.
type StepSink interface {
	// RecordStep reports one executed step: its post-dedup form and the
	// assembled report.
	RecordStep(lane int, s DedupStep, rep model.StepReport)
	// RecordLoad reports a LoadCells memory initialization. Loads must not
	// interleave with pool step execution (they are setup-time events).
	RecordLoad(lane int, base model.Addr, vals []model.Word)
	// StepBarrier marks the end of one Pool.ExecuteSteps round. Single
	// machines never call it.
	StepBarrier()
}

// SetStepSink attaches a step sink to the machine under the given lane id
// (nil detaches). Attach before the first step: a trace that misses steps
// since construction replays against interconnect and clock state the
// recorded costs did not see. Replay entry points (ExecuteDedupStep) never
// invoke the sink, so replaying through a recording machine cannot
// re-record.
func (m *Machine) SetStepSink(sink StepSink, lane int) {
	m.sink = sink
	m.lane = lane
}

// DedupStep is one P-RAM step in its POST-DEDUP form: the deduplicated
// read batch, the reader fan-out lists, and the deduplicated write batch.
// It is the one value at every record and replay boundary: the dedup
// front end writes it, a StepSink observes it, a trace's step frame holds
// it (repro/internal/replay), ExecuteDedupStep runs it, and Reconstruct
// turns it back into the batch it came from.
type DedupStep struct {
	// Reads holds one request per read address, owned by its
	// lowest-processor reader, in ascending variable order.
	Reads []Request
	// ReaderProcs[ReaderOff[g]:ReaderOff[g+1]] are the ascending
	// processor ids whose reads collapsed into Reads[g], starting with
	// Reads[g].Proc itself; len(ReaderOff) is len(Reads)+1.
	ReaderOff   []int32
	ReaderProcs []int32
	// Writes holds one request per written address: the Mode's winning
	// writer.
	Writes []Request
}

// Reconstruct writes the step's pre-dedup form into b, the inverse of the
// dedup front end: an OpRead of Reads[g]'s variable for every processor
// in its reader run, each write's winner as its OpWrite, and OpNone for
// every other processor. b is indexed by processor and must be longer
// than every processor id the step names. Deduplicating b under the mode
// the step ran in yields the step again (TestReconstructionLaw), because
// reader runs are exhaustive and ascending and each written variable keeps
// only its winner.
func (s DedupStep) Reconstruct(b model.Batch) {
	for i := range b {
		b[i] = model.Request{Proc: i, Op: model.OpNone}
	}
	for g := range s.Reads {
		v := s.Reads[g].Var
		for _, p := range s.ReaderProcs[s.ReaderOff[g]:s.ReaderOff[g+1]] {
			b[p] = model.Request{Proc: int(p), Op: model.OpRead, Addr: v}
		}
	}
	for i := range s.Writes {
		w := &s.Writes[i]
		b[w.Proc] = model.Request{Proc: w.Proc, Op: model.OpWrite, Addr: w.Var, Value: w.Value}
	}
}

// ExecuteDedupStep executes one P-RAM step from its post-dedup form —
// exactly what a StepSink observed — by running ExecuteStep's body
// without its dedup front end. It is the replay entry point: cost
// accounting, store mutations, the dense Values buffer and the breakdown
// accessors are bit-for-bit those of the ExecuteStep call the step was
// captured from. Conflict-discipline checking is a front-end property and
// is not re-run, so rep.Err only reports protocol stalls.
//
// The returned report aliases machine scratch like ExecuteStep's. The
// sink, if any, is NOT invoked.
//
//pram:hotpath
func (m *Machine) ExecuteDedupStep(s DedupStep) model.StepReport {
	return m.execute(&s, m.openDedup(&s))
}

// openDedup opens the report of a step that skipped the front end:
// Values Procs() long and no conflict verdict.
//
//pram:hotpath
func (m *Machine) openDedup(s *DedupStep) model.StepReport {
	if len(s.ReaderOff) != len(s.Reads)+1 {
		//pram:coldalloc caller-contract panic guard, never taken in steady state
		panic(fmt.Sprintf("quorum: %d reader offsets for %d dedup reads", len(s.ReaderOff), len(s.Reads)))
	}
	return m.openReport(nil)
}
