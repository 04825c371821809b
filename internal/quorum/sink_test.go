package quorum

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// captureSink copies every recorded step (the slices alias machine
// scratch, so a sink must deep-copy what it keeps).
type captureSink struct {
	lanes     []int
	steps     []DedupStep
	reports   []string
	loads     int
	barrierAt []int // len(lanes) at each StepBarrier
}

func (c *captureSink) RecordStep(lane int, s DedupStep, rep model.StepReport) {
	c.lanes = append(c.lanes, lane)
	c.steps = append(c.steps, cloneStep(s))
	c.reports = append(c.reports, reportString(&rep))
}

// cloneStep deep-copies a post-dedup step out of machine scratch.
func cloneStep(s DedupStep) DedupStep {
	return DedupStep{
		Reads:       slices.Clone(s.Reads),
		ReaderOff:   slices.Clone(s.ReaderOff),
		ReaderProcs: slices.Clone(s.ReaderProcs),
		Writes:      slices.Clone(s.Writes),
	}
}

func (c *captureSink) RecordLoad(lane int, base model.Addr, vals []model.Word) { c.loads++ }

func (c *captureSink) StepBarrier() { c.barrierAt = append(c.barrierAt, len(c.lanes)) }

func reportString(rep *model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d cp=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err != nil, rep.Values)
}

// breakdown is one step's LastStepBreakdown plus LastDedupRequests.
type breakdown struct {
	readTime   int64
	readPhases int
	liveArea   int64
	dedup      int
}

func machineBreakdown(m *Machine) breakdown {
	var b breakdown
	b.readTime, b.readPhases, b.liveArea = m.LastStepBreakdown()
	b.dedup = m.LastDedupRequests()
	return b
}

func poolBreakdown(p *Pool, sh int) breakdown {
	var b breakdown
	b.readTime, b.readPhases, b.liveArea = p.LastStepBreakdown(sh)
	b.dedup = p.LastDedupRequests(sh)
	return b
}

// mixedBatch draws a random step with shared addresses (multi-reader
// fan-out) and concurrent writes.
func mixedBatch(rng *rand.Rand, n, mem int) model.Batch {
	b := model.NewBatch(n)
	for i := 0; i < n; i++ {
		addr := rng.Intn(mem / 4) // dense address reuse
		switch rng.Intn(3) {
		case 0:
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
		case 1:
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(rng.Int63n(1 << 16))}
		}
	}
	return b
}

// TestExecuteDedupStepMatchesExecuteStep: feeding a captured post-dedup
// step back through ExecuteDedupStep on an identically constructed machine
// reproduces the original StepReport bit-for-bit (Err excepted — the dedup
// layer's conflict check is not re-run), the same breakdown accessors and
// the same store image.
func TestExecuteDedupStepMatchesExecuteStep(t *testing.T) {
	const n, steps = 32, 10
	mp := memmap.Generate(memmap.LemmaTwo(n, 2, 1), 17)
	// EREW forbids the two concurrent reads of address 0 that every
	// step of this batch carries.
	conflicting := func(rng *rand.Rand, n, mem int) model.Batch {
		b := mixedBatch(rng, n, mem)
		b[0] = model.Request{Proc: 0, Op: model.OpRead, Addr: 0}
		b[1] = model.Request{Proc: 1, Op: model.OpRead, Addr: 0}
		return b
	}
	idle := func(rng *rand.Rand, n, mem int) model.Batch { return model.NewBatch(n) }
	cases := []struct {
		name     string
		mode     model.Mode
		twoStage bool
		batch    func(rng *rand.Rand, n, mem int) model.Batch
	}{
		{"priority", model.CRCWPriority, false, mixedBatch},
		{"arbitrary", model.CRCWArbitrary, false, mixedBatch},
		{"two-stage", model.CRCWPriority, true, mixedBatch},
		{"erew-conflict", model.EREW, false, conflicting},
		{"all-none", model.CRCWPriority, false, idle},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live := NewMachine("live", n, c.mode, NewStore(mp), NewCompleteBipartite())
			rep := NewMachine("replay", n, c.mode, NewStore(mp), NewCompleteBipartite())
			if c.twoStage {
				live.SetTwoStage(&TwoStageConfig{})
				rep.SetTwoStage(&TwoStageConfig{})
			}

			sink := &captureSink{}
			live.SetStepSink(sink, 3)
			rng := rand.New(rand.NewSource(5))
			var batches []model.Batch
			var liveReports []string
			var liveErrs []error
			var liveBreakdowns []breakdown
			for s := 0; s < steps; s++ {
				b := c.batch(rng, n, mp.Vars())
				r := live.ExecuteStep(b)
				batches = append(batches, b)
				liveReports = append(liveReports, reportString(&r))
				liveErrs = append(liveErrs, r.Err)
				liveBreakdowns = append(liveBreakdowns, machineBreakdown(live))
			}
			live.SetStepSink(nil, 0)

			if len(sink.steps) != steps {
				t.Fatalf("sink captured %d steps, want %d", len(sink.steps), steps)
			}
			for _, lane := range sink.lanes {
				if lane != 3 {
					t.Fatalf("sink saw lane %d, want 3", lane)
				}
			}
			for s, ds := range sink.steps {
				checkWinners(t, c.mode, batches[s], ds.Writes)
				if c.mode == model.EREW {
					var ce *model.ConflictError
					if !errors.As(liveErrs[s], &ce) {
						t.Errorf("step %d: live Err = %v, want the conflict error", s, liveErrs[s])
					}
				}
				r := rep.ExecuteDedupStep(ds)
				if c.mode == model.EREW {
					// The documented exception: replay does not re-run the
					// front end's conflict check.
					if r.Err != nil {
						t.Errorf("step %d: replay Err = %v, want nil", s, r.Err)
					}
					r.Err = liveErrs[s]
				}
				if got := reportString(&r); got != liveReports[s] {
					t.Errorf("step %d diverged:\n live  %s\n dedup %s", s, liveReports[s], got)
				}
				if got := machineBreakdown(rep); got != liveBreakdowns[s] {
					t.Errorf("step %d breakdown: replay %+v, live %+v", s, got, liveBreakdowns[s])
				}
				if sink.reports[s] != liveReports[s] {
					// The sink's recorded report must equal the returned one too.
					t.Errorf("step %d: sink recorded %s, ExecuteStep returned %s", s, sink.reports[s], liveReports[s])
				}
				if c.name == "all-none" {
					empty := len(ds.Reads)+len(ds.Writes) == 0
					zero := len(r.Values) == n && !slices.ContainsFunc(r.Values, func(v model.Word) bool { return v != 0 })
					if !empty || !zero {
						t.Errorf("idle step %d: recorded %d reads, %d writes, Values %v; want an empty step and %d zero Values",
							s, len(ds.Reads), len(ds.Writes), r.Values, n)
					}
				}
			}
			if lf, rf := live.Store().Fingerprint(), rep.Store().Fingerprint(); lf != rf {
				t.Errorf("store fingerprints diverged: live %x, dedup %x", lf, rf)
			}
		})
	}
}

// TestReconstructionLaw: DedupStep.Reconstruct inverts the dedup front
// end. For random batches with shared reads and concurrent writes under
// every conflict mode, deduplicating a step's reconstruction yields the
// step exactly, every reader run and winning write included.
func TestReconstructionLaw(t *testing.T) {
	const n, steps = 32, 200
	mp := memmap.Generate(memmap.LemmaTwo(n, 2, 1), 17)
	for _, mode := range []model.Mode{model.EREW, model.CREW, model.CRCWPriority, model.CRCWCommon, model.CRCWArbitrary} {
		m := NewMachine("law", n, mode, NewStore(mp), NewCompleteBipartite())
		rng := rand.New(rand.NewSource(int64(mode) + 1))
		b := model.NewBatch(n)
		for s := 0; s < steps; s++ {
			m.dedup(mixedBatch(rng, n, mp.Vars()))
			want := cloneStep(m.sc.step)
			want.Reconstruct(b)
			m.dedup(b)
			got := m.sc.step
			if !slices.Equal(got.Reads, want.Reads) || !slices.Equal(got.ReaderOff, want.ReaderOff) ||
				!slices.Equal(got.ReaderProcs, want.ReaderProcs) || !slices.Equal(got.Writes, want.Writes) {
				t.Fatalf("%v step %d: dedup of the reconstruction\n got %+v\nwant %+v", mode, s, got, want)
			}
		}
	}
}

// checkWinners asserts that the post-dedup writes name each written
// address's winning writer in batch: the last (highest-processor) writer
// under CRCW-Arbitrary, the first under every other mode.
func checkWinners(t *testing.T, mode model.Mode, batch model.Batch, writes []Request) {
	t.Helper()
	winner := map[model.Addr]int{}
	for _, r := range batch {
		if r.Op != model.OpWrite {
			continue
		}
		if _, seen := winner[r.Addr]; !seen || mode == model.CRCWArbitrary {
			winner[r.Addr] = r.Proc
		}
	}
	if len(writes) != len(winner) {
		t.Fatalf("%d dedup writes for %d written addresses", len(writes), len(winner))
	}
	for _, w := range writes {
		if w.Proc != winner[w.Var] {
			t.Errorf("address %d: write from processor %d, want %d", w.Var, w.Proc, winner[w.Var])
		}
	}
}

// TestDedupStepDoesNotRecord: replay entry points must not re-invoke the
// sink.
func TestDedupStepDoesNotRecord(t *testing.T) {
	const n = 16
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 9)
	m := NewMachine("m", n, model.CRCWPriority, NewStore(mp), NewCompleteBipartite())
	sink := &captureSink{}
	m.SetStepSink(sink, 0)
	m.ExecuteDedupStep(DedupStep{Reads: []Request{{Proc: 0, Var: 1}}, ReaderOff: []int32{0, 1}, ReaderProcs: []int32{0},
		Writes: []Request{{Proc: 1, Var: 2, Write: true, Value: 7}}})
	if len(sink.steps) != 0 {
		t.Fatalf("ExecuteDedupStep recorded %d steps through the sink", len(sink.steps))
	}
}

// TestPoolSetStepSinkLanes: the pool records every round, lanes 0..K−1 in
// ascending order then the barrier; replaying the recorded steps in that
// order, each on its lane's machine of a fresh pool, reproduces the
// reports, the breakdown accessors and the store image.
func TestPoolSetStepSinkLanes(t *testing.T) {
	const k, nPer = 4, 8
	p := memmap.LemmaTwo(k*nPer, 2, 1)
	mp := memmap.GenerateBanded(p, 7, k)
	newPool := func(name string) *Pool {
		return NewPool(name, NewStore(mp), func(int) Interconnect { return NewCompleteBipartite() },
			PoolConfig{Engines: k, Procs: nPer, Mode: model.CRCWPriority})
	}
	pl := newPool("sink")
	sink := &captureSink{}
	pl.SetStepSink(sink)

	batches := make([]model.Batch, k)
	for sh := range batches {
		lo, _ := memmap.BandRange(sh, mp.Vars(), k)
		b := model.NewBatch(nPer)
		for i := 0; i < nPer; i++ {
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: lo + i, Value: model.Word(sh*100 + i)}
		}
		batches[sh] = b
	}
	const rounds = 3
	var liveBreakdowns [rounds][k]breakdown
	for r := 0; r < rounds; r++ {
		pl.ExecuteSteps(batches)
		for sh := 0; sh < k; sh++ {
			liveBreakdowns[r][sh] = poolBreakdown(pl, sh)
		}
	}
	if len(sink.steps) != rounds*k {
		t.Fatalf("captured %d steps, want %d", len(sink.steps), rounds*k)
	}
	for r := 0; r < rounds; r++ {
		for i, lane := range sink.lanes[r*k : (r+1)*k] {
			if lane != i {
				t.Fatalf("round %d recorded lanes %v, want 0..%d in order", r, sink.lanes[r*k:(r+1)*k], k-1)
			}
		}
	}
	if want := []int{k, 2 * k, 3 * k}; !slices.Equal(sink.barrierAt, want) {
		t.Errorf("barriers after %v recorded steps, want %v", sink.barrierAt, want)
	}
	pl2 := newPool("sink2")
	for i, st := range sink.steps {
		r, sh := i/k, sink.lanes[i]
		rep := pl2.Machine(sh).ExecuteDedupStep(st)
		if got := reportString(&rep); got != sink.reports[i] {
			t.Errorf("round %d shard %d report: replay %s, live %s", r, sh, got, sink.reports[i])
		}
		if got := poolBreakdown(pl2, sh); got != liveBreakdowns[r][sh] {
			t.Errorf("round %d shard %d breakdown: replay %+v, live %+v", r, sh, got, liveBreakdowns[r][sh])
		}
	}
	if a, b := pl.Store().Fingerprint(), pl2.Store().Fingerprint(); a != b {
		t.Errorf("pool replay fingerprint %x, live %x", b, a)
	}
}
