package replay

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// allocTrace records a small read-only trace (broadcast reads are
// idempotent, so multi-pass replay is exact) and opens a replayer over it.
func allocTrace(t *testing.T, cfg core.Spec) ([]byte, *Replayer, *bytes.Reader) {
	t.Helper()
	data, _, _ := recordRun(t, cfg, Broadcast, 8, 0)
	rd := bytes.NewReader(data)
	rp, err := Open(rd)
	if err != nil {
		t.Fatal(err)
	}
	return data, rp, rd
}

// stepOrRewind drives one replayed step, rewinding at end of file — the
// shape of the E13 benchmark loop.
func stepOrRewind(t testing.TB, rp *Replayer, rd *bytes.Reader) {
	for {
		_, _, err := rp.Step()
		if err == nil {
			return
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if err := rp.Reset(rd); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayStepZeroAllocs locks the acceptance invariant: the replay read
// path — frame decode plus ExecuteDedupStep, including the end-of-file
// rewind — performs zero heap allocations in steady state.
func TestReplayStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	_, rp, rd := allocTrace(t, core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 64, Mode: model.CRCWPriority})
	for i := 0; i < 20; i++ { // grow reader and engine arenas, cross a rewind
		stepOrRewind(t, rp, rd)
	}
	if avg := testing.AllocsPerRun(50, func() {
		stepOrRewind(t, rp, rd)
	}); avg != 0 {
		t.Errorf("replayed step allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestReplayResetZeroAllocs: rewinding a replayer onto its trace (magic
// and header frame) allocates nothing. TestReplayStepZeroAllocs rewinds
// once per several steps, so its average would round one allocation per
// rewind down to 0.
func TestReplayResetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	_, rp, rd := allocTrace(t, core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 64, Mode: model.CRCWPriority})
	rewind := func() {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if err := rp.Reset(rd); err != nil {
			t.Fatal(err)
		}
	}
	rewind()
	if avg := testing.AllocsPerRun(50, rewind); avg != 0 {
		t.Errorf("Reset allocates %.1f/op, want 0", avg)
	}
}

// TestPoolReplayStepZeroAllocs extends the invariant to multi-lane pool
// traces (each step frame on its lane's machine, barriers between rounds).
func TestPoolReplayStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	_, rp, rd := allocTrace(t, core.Spec{Kind: core.KindDMMPC, Lanes: 4, Procs: 16, Mode: model.CRCWPriority})
	for i := 0; i < 20; i++ {
		stepOrRewind(t, rp, rd)
	}
	if avg := testing.AllocsPerRun(50, func() {
		stepOrRewind(t, rp, rd)
	}); avg != 0 {
		t.Errorf("replayed pool step allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestVerifyReplayZeroAllocs keeps even the verifying replay loop
// allocation-free (hashing and cost comparison are pure arithmetic).
func TestVerifyReplayZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	_, rp, rd := allocTrace(t, core.Spec{Kind: core.KindMOT2D, Lanes: 1, Procs: 16, Mode: model.CRCWPriority})
	rp.Verify = true
	for i := 0; i < 20; i++ {
		stepOrRewind(t, rp, rd)
	}
	if sum := rp.Summary(); !sum.VerifyOK() {
		t.Fatalf("verification failed during warmup: %v", sum.MismatchDetail)
	}
	if avg := testing.AllocsPerRun(50, func() {
		stepOrRewind(t, rp, rd)
	}); avg != 0 {
		t.Errorf("verifying replayed step allocates %.1f/op in steady state, want 0", avg)
	}
}
