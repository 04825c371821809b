package replay

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mot"
)

// repFingerprint collapses a StepReport to its comparable fields (Values
// alias reusable buffers, so they are rendered into the string).
func repFingerprint(rep *model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d copies=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err != nil, rep.Values)
}

// roundString renders one executed round for bit-for-bit comparison.
func roundString(agg *model.StepReport, lanes []model.StepReport) string {
	var sb strings.Builder
	sb.WriteString("agg " + repFingerprint(agg))
	for k := range lanes {
		fmt.Fprintf(&sb, " | lane%d %s", k, repFingerprint(&lanes[k]))
	}
	return sb.String()
}

// recordRun builds cfg's machines, records `steps` generated steps (after
// a LoadImage preamble) and returns the trace bytes, the live run's round
// strings, and the final store fingerprint.
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
	var rounds []string
	for s := 0; s < steps; s++ {
		batches := gen.Step(s)
		if built.Pool != nil {
			agg, lanes := built.Pool.ExecuteSteps(batches)
			rounds = append(rounds, roundString(&agg, lanes))
		} else {
			rep := built.Machine.ExecuteStep(batches[0])
			rounds = append(rounds, roundString(&rep, []model.StepReport{rep}))
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes(), rounds, built.Store.Fingerprint()
}

// replayRun replays a trace in verify mode and returns the replayed round
// strings, the summary and the final store fingerprint.
func replayRun(t *testing.T, data []byte) ([]string, Summary, uint64) {
	t.Helper()
	rp, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rp.Verify = true
	var rounds []string
	rp.OnRound = func(agg model.StepReport, lanes []model.StepReport) {
		rounds = append(rounds, roundString(&agg, lanes))
	}
	sum, err := rp.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rounds, sum, rp.Built().Store.Fingerprint()
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
// record → replay produces bit-for-bit identical StepReports and store
// fingerprints, and the embedded verification passes.
func TestRoundTrip(t *testing.T) {
	for _, tc := range roundTripConfigs {
		t.Run(tc.name, func(t *testing.T) {
			const steps, loads = 12, 32
			data, liveRounds, liveFP := recordRun(t, tc.cfg, tc.pattern, steps, loads)
			gotRounds, sum, gotFP := replayRun(t, data)

			if len(gotRounds) != len(liveRounds) {
				t.Fatalf("replayed %d rounds, live run had %d", len(gotRounds), len(liveRounds))
			}
			for i := range liveRounds {
				if gotRounds[i] != liveRounds[i] {
					t.Errorf("round %d diverged:\n live   %s\n replay %s", i, liveRounds[i], gotRounds[i])
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
			if sum.Loads == 0 {
				t.Error("no load frames replayed")
			}
		})
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
