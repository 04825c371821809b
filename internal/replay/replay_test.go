package replay

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
)

// repFingerprint collapses a StepReport to its comparable fields (Values
// alias reusable buffers, so they are rendered into the string).
func repFingerprint(rep *model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d copies=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err != nil, rep.Values)
}

// stepString renders one executed step and its lane for bit-for-bit
// comparison.
func stepString(lane int, rep *model.StepReport) string {
	return fmt.Sprintf("lane%d %s", lane, repFingerprint(rep))
}

// recordRun builds cfg's machines, records `steps` generated steps (after
// a LoadImage preamble) and returns the trace bytes, the live run's step
// strings (a pool round's shard reports in shard order), and the final
// store fingerprint.
func recordRun(t testing.TB, cfg core.Spec, pattern Pattern, steps, loads int) ([]byte, []string, uint64) {
	t.Helper()
	built, err := cfg.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatalf("recorder: %v", err)
	}
	if loads > 0 {
		LoadImage(built, loads, 99)
	}
	gen := NewGenerator(pattern, built.Spec.Lanes, built.Spec.Procs, built.Params.Mem, 7)
	var live []string
	for s := 0; s < steps; s++ {
		for k, rep := range built.ExecuteSteps(gen.Step(s)) {
			live = append(live, stepString(k, &rep))
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes(), live, built.Store.Fingerprint()
}

// replayRun replays a trace in verify mode and returns the replayed step
// strings, the summary and the final store fingerprint.
func replayRun(t *testing.T, data []byte) ([]string, Summary, uint64) {
	t.Helper()
	rp, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rp.Verify = true
	var got []string
	for {
		lane, rep, err := rp.Step()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		got = append(got, stepString(lane, &rep))
	}
	return got, rp.Summary(), rp.Built().Store.Fingerprint()
}

// roundTripConfigs is the coverage matrix of the acceptance criteria:
// bipartite and 2DMOT interconnects, dual-rail, two-stage, K ∈ {1, 4}.
var roundTripConfigs = []struct {
	name    string
	cfg     core.Spec
	pattern Pattern
}{
	{"dmmpc", core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}, Uniform},
	{"dmmpc-twostage", core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority, TwoStage: true}, Uniform},
	{"dmmpc-K4", core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8, Mode: model.CRCWPriority}, Banded},
	{"dmmpc-K4-cross", core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8, Mode: model.CRCWPriority}, Uniform},
	{"dmmpc-K4-twostage", core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 8, Mode: model.CRCWPriority, TwoStage: true}, Banded},
	{"mot2d", core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8, Mode: model.CRCWPriority}, Uniform},
	{"mot2d-queue", core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8, Mode: model.CRCWPriority, Policy: mot.QueueOnCollision}, Uniform},
	{"mot2d-dualrail", core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8, Mode: model.CRCWPriority, DualRail: true}, Uniform},
	{"mot2d-twostage", core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8, Mode: model.CRCWPriority, TwoStage: true}, Uniform},
	{"mot2d-dualrail-twostage", core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 8, Mode: model.CRCWPriority, DualRail: true, TwoStage: true}, Uniform},
	{"mot2d-K4", core.Spec{Kind: core.KindMOT2D, Lanes: 4, Procs: 8, Mode: model.CRCWPriority}, Banded},
	{"mot2d-K4-dualrail", core.Spec{Kind: core.KindMOT2D, Lanes: 4, Procs: 8, Mode: model.CRCWPriority, DualRail: true}, Banded},
	{"luccio", core.Spec{Kind: core.KindLuccio, Lanes: 1, Procs: 8, Mode: model.CRCWPriority}, Uniform},
	{"dmmpc-hotspot", core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}, Hotspot},
	{"dmmpc-broadcast", core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}, Broadcast},
}

// TestRoundTrip is the acceptance property: for every covered config,
// record → replay runs every step on the lane it ran on live, with a
// bit-for-bit identical StepReport, ends on the same store fingerprint,
// and the embedded verification passes.
func TestRoundTrip(t *testing.T) {
	for _, tc := range roundTripConfigs {
		t.Run(tc.name, func(t *testing.T) {
			const steps, loads = 12, 32
			data, liveSteps, liveFP := recordRun(t, tc.cfg, tc.pattern, steps, loads)
			gotSteps, sum, gotFP := replayRun(t, data)

			if len(gotSteps) != len(liveSteps) {
				t.Fatalf("replayed %d steps, live run had %d", len(gotSteps), len(liveSteps))
			}
			for i := range liveSteps {
				if gotSteps[i] != liveSteps[i] {
					t.Errorf("step %d diverged:\n live   %s\n replay %s", i, liveSteps[i], gotSteps[i])
				}
			}
			if gotFP != liveFP {
				t.Errorf("store fingerprint: live %x, replay %x", liveFP, gotFP)
			}
			if !sum.VerifyOK() {
				t.Errorf("verify failed: %d mismatches %v (fingerprint ok=%v)",
					sum.Mismatches, sum.MismatchDetail, sum.FingerprintOK)
			}
			if sum.Steps != steps*int64(quorumLanes(tc.cfg)) {
				t.Errorf("summary counts %d steps, want %d", sum.Steps, steps*int64(quorumLanes(tc.cfg)))
			}
			if sum.Rounds != steps {
				t.Errorf("summary counts %d rounds, want %d", sum.Rounds, steps)
			}
			if sum.Loads == 0 {
				t.Error("no load frames replayed")
			}
		})
	}
}

// laneSink forwards a pool's sink calls to a recorder under renamed
// lanes, the way the serving front end names its tenants: perm[k] is the
// trace lane of pool shard k, and a shard with an empty step is left out
// of its round.
type laneSink struct {
	rec  *Recorder
	perm []int
}

func (s *laneSink) RecordStep(lane int, st quorum.DedupStep, rep model.StepReport) {
	if len(st.Reads) == 0 && len(st.Writes) == 0 {
		return
	}
	s.rec.RecordStep(s.perm[lane], st, rep)
}

func (s *laneSink) RecordLoad(lane int, base model.Addr, vals []model.Word) {
	s.rec.RecordLoad(s.perm[lane], base, vals)
}

func (s *laneSink) StepBarrier() { s.rec.StepBarrier() }

// recordRenamed runs `steps` generated rounds of a K = 2 pool through a
// laneSink and returns the trace, the live run's step strings in the
// order the steps ran (under their trace lanes) and the final store
// fingerprint. idle(s, k) leaves shard k out of round s.
func recordRenamed(t *testing.T, pattern Pattern, perm []int, steps int, idle func(s, k int) bool) ([]byte, []string, uint64) {
	t.Helper()
	built, err := core.Spec{Kind: core.KindDMMPC, Lanes: 2, Procs: 8, Mode: model.CRCWPriority}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	built.Pool.SetStepSink(&laneSink{rec: rec, perm: perm}) // in the recorder's place
	gen := NewGenerator(pattern, 2, built.Spec.Procs, built.Params.Mem, 7)
	var live []string
	for s := 0; s < steps; s++ {
		round := append([]model.Batch(nil), gen.Step(s)...)
		for k := range round {
			if idle(s, k) {
				round[k] = nil
			}
		}
		for k, rep := range built.Pool.ExecuteSteps(round) {
			if !idle(s, k) {
				live = append(live, stepString(perm[k], &rep))
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), live, built.Store.Fingerprint()
}

// roundLanes reads a trace's step-frame lanes, one slice per round.
func roundLanes(t *testing.T, data []byte) [][]int {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]int
	var cur []int
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return rounds
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case KindStep:
			cur = append(cur, f.Lane)
		case KindBarrier:
			rounds = append(rounds, cur)
			cur = nil
		}
	}
}

// checkReplay replays data in verify mode and compares every step, in
// order, with the live run's.
func checkReplay(t *testing.T, data []byte, live []string, liveFP uint64) Summary {
	t.Helper()
	got, sum, fp := replayRun(t, data)
	if len(got) != len(live) {
		t.Fatalf("replayed %d steps, live run had %d", len(got), len(live))
	}
	for i := range live {
		if got[i] != live[i] {
			t.Errorf("step %d diverged:\n live   %s\n replay %s", i, live[i], got[i])
		}
	}
	if fp != liveFP {
		t.Errorf("store fingerprint: live %x, replay %x", liveFP, fp)
	}
	if !sum.VerifyOK() {
		t.Errorf("verify failed: %d mismatches %v (fingerprint ok=%v)",
			sum.Mismatches, sum.MismatchDetail, sum.FingerprintOK)
	}
	return sum
}

// TestTraceKeepsRunOrder: a round whose lanes ran in descending order is
// written in that order and replayed in it. Uniform traffic makes the two
// lanes share cells, so running a round's steps in lane order instead
// would change what they read.
func TestTraceKeepsRunOrder(t *testing.T) {
	const steps = 40
	data, live, liveFP := recordRenamed(t, Uniform, []int{1, 0}, steps, func(int, int) bool { return false })
	rounds := roundLanes(t, data)
	if len(rounds) != steps {
		t.Fatalf("trace holds %d rounds, want %d", len(rounds), steps)
	}
	for r, lanes := range rounds {
		if !slices.Equal(lanes, []int{1, 0}) {
			t.Fatalf("round %d lists lanes %v, want [1 0] as they ran", r, lanes)
		}
	}
	checkReplay(t, data, live, liveFP)
}

// TestPartialRoundsReplay: a multi-lane trace whose rounds name only some
// of its lanes, as a serving capture's rounds name only the scheduled
// tenants, replays and verifies, one round per barrier.
func TestPartialRoundsReplay(t *testing.T) {
	const steps = 12
	idle := func(s, k int) bool { return (s+k)%3 == 0 }
	data, live, liveFP := recordRenamed(t, Banded, []int{0, 1}, steps, idle)
	partial := 0
	for _, lanes := range roundLanes(t, data) {
		if len(lanes) < 2 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no round left a lane out")
	}
	sum := checkReplay(t, data, live, liveFP)
	if sum.Rounds != steps || sum.Steps != int64(len(live)) {
		t.Errorf("summary counts %d steps in %d rounds, want %d in %d", sum.Steps, sum.Rounds, len(live), steps)
	}
}

func quorumLanes(c core.Spec) int {
	if c.Lanes < 1 {
		return 1
	}
	return c.Lanes
}

// TestSecondReplayIsIndependent re-opens the same trace twice; both
// replays must verify — replay must not depend on reader or machine state
// left over from a previous open.
func TestSecondReplayIsIndependent(t *testing.T) {
	data, _, _ := recordRun(t, core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}, Uniform, 8, 16)
	for i := 0; i < 2; i++ {
		_, sum, _ := replayRun(t, data)
		if !sum.VerifyOK() {
			t.Fatalf("replay %d failed verification: %v", i, sum.MismatchDetail)
		}
	}
}

// TestResetReplaysAnotherPass drives a read-only trace for two passes
// through one Replayer via Reset — the multi-pass benchmark path.
func TestResetReplaysAnotherPass(t *testing.T) {
	// Broadcast steps are read-only, so a second pass stays verified.
	data, _, _ := recordRun(t, core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}, Broadcast, 6, 0)
	rp, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rp.Verify = true
	if _, err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rp.Reset(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	sum, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.VerifyOK() {
		t.Fatalf("second pass failed verification: %v", sum.MismatchDetail)
	}
	if sum.Steps != 12 {
		t.Fatalf("summary counts %d steps over two passes, want 12", sum.Steps)
	}
}

// TestPreloadedStoreRejected: recording must start from the
// post-construction store state; Open detects a trace whose recorder
// attached late.
func TestPreloadedStoreRejected(t *testing.T) {
	cfg := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 16, Mode: model.CRCWPriority}
	built, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the store BEFORE attaching the recorder: the header's start
	// fingerprint no longer matches a fresh build.
	built.Store.LoadCell(3, 42)
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	built.Machine.ExecuteStep(model.NewBatch(16))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Open accepted a trace recorded over a pre-loaded store")
	}
}

// TestGeneratorDeterminism: one (pattern, shape, seed) triple must name
// one workload.
func TestGeneratorDeterminism(t *testing.T) {
	for _, p := range []Pattern{Uniform, Banded, Hotspot, Broadcast} {
		a := NewGenerator(p, 2, 8, 256, 5)
		b := NewGenerator(p, 2, 8, 256, 5)
		for s := 0; s < 4; s++ {
			ba, bb := a.Step(s), b.Step(s)
			for k := range ba {
				for i := range ba[k] {
					if ba[k][i] != bb[k][i] {
						t.Fatalf("%v: step %d lane %d proc %d diverged", p, s, k, i)
					}
				}
			}
		}
	}
}
