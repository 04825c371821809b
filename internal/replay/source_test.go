package replay

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// recordSourceTrace records a small single-machine uniform workload and
// returns the trace bytes plus the per-step recorded costs and the final
// store fingerprint.
func recordSourceTrace(t *testing.T, cfg core.Spec, steps int) ([]byte, []StepCosts, uint64) {
	t.Helper()
	built, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(Uniform, 1, cfg.Procs, built.Params.Mem, 99)
	var costs []StepCosts
	for s := 0; s < steps; s++ {
		rep := built.Machine.ExecuteStep(gen.Step(s)[0])
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		costs = append(costs, costsOf(&rep))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), costs, built.Store.Fingerprint()
}

// TestBatchSourceRoundTrip locks the adapter's contract: reconstructing a
// trace's pre-dedup batches and feeding them to an identical fresh machine
// through the NORMAL ExecuteStep front end reproduces the recorded per-step
// costs and the recorded final store image exactly.
func TestBatchSourceRoundTrip(t *testing.T) {
	cfg := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 24, Mode: model.CRCWPriority}
	data, costs, fp := recordSourceTrace(t, cfg, 12)

	src, err := NewBatchSource(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Procs() != 24 {
		t.Fatalf("Procs = %d, want 24", src.Procs())
	}
	fresh, err := src.Spec().Build()
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for {
		b, ok := src.NextBatch()
		if !ok {
			break
		}
		rep := fresh.Machine.ExecuteStep(b)
		if rep.Err != nil {
			t.Fatalf("step %d: %v", step, rep.Err)
		}
		if got := costsOf(&rep); got != costs[step] {
			t.Errorf("step %d: reconstructed costs %+v, recorded %+v", step, got, costs[step])
		}
		step++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if step != len(costs) {
		t.Fatalf("reconstructed %d steps, recorded %d", step, len(costs))
	}
	if got := fresh.Store.Fingerprint(); got != fp {
		t.Errorf("final fingerprint %x, recorded %x", got, fp)
	}
}

// TestBatchSourceLaneSelection checks multi-lane traces split per lane and
// out-of-range lanes are rejected.
func TestBatchSourceLaneSelection(t *testing.T) {
	cfg := core.Spec{Kind: core.KindDMMPC, Lanes: 2, Procs: 8, Mode: model.CRCWPriority}
	built, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, built)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(Banded, 2, 8, built.Params.Mem, 7)
	const rounds = 4
	for s := 0; s < rounds; s++ {
		for _, rep := range built.Pool.ExecuteSteps(gen.Step(s)) {
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 2; lane++ {
		src, err := NewBatchSource(buf.Bytes(), lane)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := src.NextBatch(); !ok {
				break
			}
			n++
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if n != rounds {
			t.Errorf("lane %d yielded %d steps, want %d", lane, n, rounds)
		}
	}
	if _, err := NewBatchSource(buf.Bytes(), 2); err == nil {
		t.Error("lane 2 of a 2-lane trace should be rejected")
	}
}

// TestBatchSourceTruncated verifies a corrupt stream surfaces through Err.
func TestBatchSourceTruncated(t *testing.T) {
	cfg := core.Spec{Kind: core.KindDMMPC, Lanes: 1, Procs: 8, Mode: model.CRCWPriority}
	data, _, _ := recordSourceTrace(t, cfg, 5)
	src, err := NewBatchSource(data[:len(data)-10], 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := src.NextBatch(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Error("truncated trace ended without an error")
	}
}
