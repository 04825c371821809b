package quorum

import (
	"fmt"

	"repro/internal/model"
)

// StallError reports that the protocol failed to drain a step's requests
// within the phase cap — the observable symptom of a memory map without the
// expansion property (or of a broken interconnect).
type StallError struct {
	Batch  string
	Phases int
	Live   int
}

// Error implements the error interface.
func (e *StallError) Error() string {
	return fmt.Sprintf("quorum protocol stalled: %s batch stopped after %d phases with %d live requests",
		e.Batch, e.Phases, e.Live)
}

// Machine adapts the quorum engine into a full model.Backend: it converts a
// P-RAM step into a deduplicated read batch followed by a write batch,
// preserving P-RAM semantics (reads see pre-step state; write conflicts
// resolved per Mode) while the engine charges phases/time.
//
// It is the shared chassis of the MPC baseline (Lemma 1 parameters) and the
// paper's DMMPC (Lemma 2 parameters); the 2DMOT machine plugs in a packet
// network as the Interconnect.
//
// A step executes in one way: a dedup front end turns the batch into its
// post-dedup form (a DedupStep), and one body runs the read leg, the
// reader fan-out and the write leg. ExecuteStep is the two in sequence;
// the replay entry ExecuteDedupStep is the body alone.
//
// ExecuteStep is allocation-free in steady state: concurrent accesses are
// deduplicated by sorting a reusable record slice (grouped by address)
// instead of building per-step maps, and the StepReport's Values slice is a
// dense per-processor buffer reused across steps.
//
// A Machine is single-threaded, and several Machines may share one Store:
// the Pool runs one Machine per workload shard, all on its caller, under
// the store's shard-ownership invariant (see the package doc).
type Machine struct {
	name  string
	n     int
	mode  model.Mode
	store *Store
	eng   *Engine

	// twoStage, when non-nil, selects the faithful UW'87 two-stage
	// schedule for every batch (SetTwoStage).
	twoStage *TwoStageConfig

	// sink, when non-nil, observes every ExecuteStep's post-dedup step
	// and every LoadCells under lane id `lane` (SetStepSink; the PRAMTRC1
	// record/replay hook).
	sink StepSink
	lane int

	// Breakdown of the most recent step, captured by the step body before
	// the write batch clobbers the engine's shared result buffers: the
	// post-dedup request count, the retrieval leg's time and phase count,
	// and the step's live-request area (Σ live counts over both legs'
	// phases). Free accessors (LastDedupRequests, LastStepBreakdown);
	// the serving lane reads them instead of attaching a StepSink.
	lastDedup      int
	lastReadTime   int64
	lastReadPhases int
	lastLiveArea   int64

	sc stepScratch
}

// stepScratch holds the Machine's reusable per-step buffers.
type stepScratch struct {
	recs    []model.ConflictRec
	recsTmp []model.ConflictRec // radix sort ping-pong buffer
	step    DedupStep           // the post-dedup step the front end writes
	values  []model.Word        // dense per-proc read values (the StepReport.Values buffer)
}

// NewMachine assembles a quorum-protocol backend.
func NewMachine(name string, n int, mode model.Mode, store *Store, net Interconnect) *Machine {
	return &Machine{
		name:  name,
		n:     n,
		mode:  mode,
		store: store,
		eng:   NewEngine(store, net, n),
	}
}

// Engine exposes the underlying engine (for tuning MaxPhases in tests).
func (m *Machine) Engine() *Engine { return m.eng }

// SetTwoStage switches the machine to the two-stage schedule (nil reverts
// to the plain round-robin loop).
func (m *Machine) SetTwoStage(cfg *TwoStageConfig) { m.twoStage = cfg }

// runBatch dispatches a deduplicated batch to the configured scheduler.
func (m *Machine) runBatch(reqs []Request) Result {
	if m.twoStage != nil {
		return m.eng.ExecuteBatchTwoStage(reqs, *m.twoStage)
	}
	return m.eng.ExecuteBatch(reqs)
}

// Store exposes the underlying copy store.
func (m *Machine) Store() *Store { return m.store }

// Name implements model.Backend.
func (m *Machine) Name() string { return m.name }

// MemSize implements model.Backend.
func (m *Machine) MemSize() int { return m.store.Map().Vars() }

// Procs implements model.Backend.
func (m *Machine) Procs() int { return m.n }

// Mode returns the conflict convention.
func (m *Machine) Mode() model.Mode { return m.mode }

// Params returns the memory-map parameter point the machine runs at.
func (m *Machine) Params() string { return m.store.Map().P.String() }

// Redundancy returns the copies-per-variable the machine pays.
func (m *Machine) Redundancy() int { return m.store.Map().R() }

// ExecuteStep implements model.Backend: the dedup front end followed by
// the step body, then the step sink, if one is attached.
//
//pram:hotpath
func (m *Machine) ExecuteStep(batch model.Batch) model.StepReport {
	rep := m.dedup(batch)
	rep = m.execute(&m.sc.step, rep)
	if m.sink != nil {
		m.sink.RecordStep(m.lane, m.sc.step, rep)
	}
	return rep
}

// dedup is the live step's front end. It sorts the batch's active
// requests, checks them against the conflict discipline, and walks them
// once, writing the post-dedup step into m.sc.step. The returned report
// is opened for execute (openReport), with Err the conflict check's
// verdict. It refuses, with a panic naming the entry, a batch that breaks
// model.Batch's contract (longer than Procs(), or an active entry i that
// is not processor i's request) or addresses a cell outside
// [0, MemSize()).
//
//pram:hotpath
func (m *Machine) dedup(batch model.Batch) model.StepReport {
	sc := &m.sc
	if len(batch) > m.n {
		//pram:coldalloc caller-contract panic guard, never taken in steady state
		panic(fmt.Sprintf("quorum: batch of %d entries for %d processors", len(batch), m.n))
	}

	// Flatten the step's active requests and sort them by address, reads
	// before writes within a group, ascending processor ids within each
	// run — one sort replaces the per-step readersOf/winner maps AND feeds
	// the conflict check (which only needs address grouping). The batch
	// is indexed by processor, so the records arrive in ascending
	// processor order and a stable radix sort on (Addr, Write) produces
	// the full (Addr, Write, Proc) order.
	recs := sc.recs[:0]
	maxAddr, cells := model.Addr(0), m.MemSize()
	for i, r := range batch {
		if r.Op == model.OpNone {
			continue
		}
		if r.Proc != i {
			//pram:coldalloc caller-contract panic guard, never taken in steady state
			panic(fmt.Sprintf("quorum: batch entry %d holds processor %d's request", i, r.Proc))
		}
		if uint(r.Addr) >= uint(cells) {
			//pram:coldalloc caller-contract panic guard, never taken in steady state
			panic(fmt.Sprintf("quorum: batch entry %d addresses cell %d outside [0,%d)", i, r.Addr, cells))
		}
		recs = append(recs, model.ConflictRec{Addr: r.Addr, Proc: i, Val: r.Value, Write: r.Op == model.OpWrite})
		maxAddr = max(maxAddr, r.Addr)
	}
	sc.recsTmp = grow(sc.recsTmp, len(recs))
	recs, sc.recsTmp = model.RadixSortConflictRecs(recs, sc.recsTmp[:len(recs)], maxAddr)
	sc.recs = recs

	// One walk over the sorted records builds the post-dedup step. An
	// address's first (lowest-processor) reader owns its read request and
	// opens its run in the reader lists, which every reader joins. Its
	// first writer owns its write request: Priority (and the EREW/CREW/
	// common fallback) keeps that writer, Arbitrary hands the request on
	// to each later writer, so the last one wins.
	s := &sc.step
	reads, off, procs, writes := s.Reads[:0], s.ReaderOff[:0], s.ReaderProcs[:0], s.Writes[:0]
	for i := range recs {
		r := &recs[i]
		first := i == 0 || recs[i-1].Addr != r.Addr // first record of its address
		switch {
		case !r.Write:
			if first {
				reads = append(reads, Request{Proc: r.Proc, Var: r.Addr})
				off = append(off, int32(len(procs)))
			}
			procs = append(procs, int32(r.Proc))
		case first || !recs[i-1].Write:
			writes = append(writes, Request{Proc: r.Proc, Var: r.Addr, Write: true, Value: r.Val})
		case m.mode == model.CRCWArbitrary:
			writes[len(writes)-1] = Request{Proc: r.Proc, Var: r.Addr, Write: true, Value: r.Val}
		}
	}
	off = append(off, int32(len(procs)))
	*s = DedupStep{Reads: reads, ReaderOff: off, ReaderProcs: procs, Writes: writes}
	return m.openReport(model.CheckSortedRecords(recs, m.mode))
}

// openReport opens a step's report for execute: the dense Values buffer,
// Procs() long and cleared, and Err set to the front end's conflict
// verdict, which outranks any stall the legs report.
func (m *Machine) openReport(err error) model.StepReport {
	m.sc.values = grow(m.sc.values, m.n)
	clear(m.sc.values)
	return model.StepReport{Values: m.sc.values, Err: err}
}

// execute is the step body every entry point runs: the read leg, the
// fan-out of each read request's value to its readers, the write leg, and
// the report's cost fields. rep arrives opened (openReport). The body also
// captures the step's breakdown (LastDedupRequests, LastStepBreakdown).
//
//pram:hotpath
func (m *Machine) execute(s *DedupStep, rep model.StepReport) model.StepReport {
	reads, off, procs, values := s.Reads, s.ReaderOff, s.ReaderProcs, rep.Values
	rres := m.runBatch(reads)
	// Fan the per-request values out to every reader NOW: the write batch
	// below reuses the engine's result buffers, so only rres's scalar
	// fields survive it.
	for g := range reads {
		v := rres.Values[g]
		for _, p := range procs[off[g]:off[g+1]] {
			values[p] = v
		}
	}
	readLastLive := lastLive(rres)
	area := int64(0)
	for _, l := range rres.LivePerPhase {
		area += int64(l)
	}

	wres := m.runBatch(s.Writes)
	for _, l := range wres.LivePerPhase {
		area += int64(l)
	}
	m.lastDedup = len(reads) + len(s.Writes)
	m.lastReadTime, m.lastReadPhases, m.lastLiveArea = rres.Time, rres.Phases, area

	rep.Time = rres.Time + wres.Time
	rep.Phases = rres.Phases + wres.Phases
	rep.CopyAccesses = rres.CopyAccesses + wres.CopyAccesses
	if ct, ok := m.eng.net.(CycleTimed); ok && ct.TimeInCycles() {
		rep.NetworkCycles = rep.Time
	}
	rep.ModuleContention = max(rres.MaxModuleLoad, wres.MaxModuleLoad)
	if rres.Stalled && rep.Err == nil {
		rep.Err = &StallError{Batch: "read", Phases: rres.Phases, Live: readLastLive}
	}
	if wres.Stalled && rep.Err == nil {
		rep.Err = &StallError{Batch: "write", Phases: wres.Phases, Live: lastLive(wres)}
	}
	return rep
}

// LastDedupRequests reports the post-dedup batch size — deduplicated read
// plus write requests — of the most recent step, executed through
// ExecuteStep or ExecuteDedupStep. The step body captures it, so exposing
// it is free; the serving lane's dedup-batch-size histogram observes this
// instead of attaching a StepSink.
func (m *Machine) LastDedupRequests() int { return m.lastDedup }

// LastStepBreakdown reports the most recent step's per-leg split, executed
// through ExecuteStep or ExecuteDedupStep: the retrieval (read-quorum)
// leg's simulated time and phase count, and the step's live-request area —
// the integral of the engine's LivePerPhase decay curve over both legs'
// phases. The step body captures the values before the write batch reuses
// the engine's result buffers, so exposing them is free; the commit leg's
// time is the step report's Time minus readTime.
func (m *Machine) LastStepBreakdown() (readTime int64, readPhases int, liveArea int64) {
	return m.lastReadTime, m.lastReadPhases, m.lastLiveArea
}

// Interconnect exposes the machine's fabric. The serving lane's span
// recorder type-asserts it to read cycle/hop counter deltas off
// cycle-timed networks; tuning knobs stay on Engine.
func (m *Machine) Interconnect() Interconnect { return m.eng.net }

// ReadCell implements model.Backend.
func (m *Machine) ReadCell(a model.Addr) model.Word { return m.store.CommittedValue(a) }

// LoadCells implements model.Backend.
func (m *Machine) LoadCells(base model.Addr, vals []model.Word) {
	for i, v := range vals {
		m.store.LoadCell(base+i, v)
	}
	if m.sink != nil {
		m.sink.RecordLoad(m.lane, base, vals)
	}
}

func lastLive(r Result) int {
	if len(r.LivePerPhase) == 0 {
		return 0
	}
	return r.LivePerPhase[len(r.LivePerPhase)-1]
}
