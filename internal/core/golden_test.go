package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/mot"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStep is the full observable outcome of one backend step.
type goldenStep struct {
	Values           []model.Word `json:"values"`
	Time             int64        `json:"time"`
	Phases           int          `json:"phases"`
	CopyAccesses     int64        `json:"copyAccesses"`
	ModuleContention int          `json:"moduleContention"`
	NetworkCycles    int64        `json:"networkCycles"`
	Err              string       `json:"err,omitempty"`
}

// goldenRun is a scenario's full recorded trajectory.
type goldenRun struct {
	Steps []goldenStep `json:"steps"`
	Stats *mot.Stats   `json:"stats,omitempty"` // 2DMOT machines only
}

// snapStep captures a StepReport densely by processor id, so the capture is
// independent of how StepReport.Values is represented.
func snapStep(rep model.StepReport, n int) goldenStep {
	g := goldenStep{
		Values:           make([]model.Word, n),
		Time:             rep.Time,
		Phases:           rep.Phases,
		CopyAccesses:     rep.CopyAccesses,
		ModuleContention: rep.ModuleContention,
		NetworkCycles:    rep.NetworkCycles,
	}
	for p := 0; p < n; p++ {
		g.Values[p] = rep.Values[p]
	}
	if rep.Err != nil {
		g.Err = rep.Err.Error()
	}
	return g
}

// mixedBatch builds a deterministic step mixing reads, writes and idles over
// a small address window (to force read/write sharing and conflicts).
func mixedBatch(n, cells int, rng *rand.Rand) model.Batch {
	b := model.NewBatch(n)
	for p := 0; p < n; p++ {
		switch rng.Intn(3) {
		case 0:
			b[p] = model.Request{Proc: p, Op: model.OpRead, Addr: rng.Intn(cells)}
		case 1:
			b[p] = model.Request{Proc: p, Op: model.OpWrite, Addr: rng.Intn(cells), Value: rng.Int63n(1 << 20)}
		default:
			b[p] = model.Request{Proc: p, Op: model.OpNone}
		}
	}
	return b
}

// runScenario drives a backend through `steps` deterministic mixed steps.
func runScenario(back model.Backend, seed int64, steps int) goldenRun {
	rng := rand.New(rand.NewSource(seed))
	n := back.Procs()
	cells := 2 * n
	var run goldenRun
	for s := 0; s < steps; s++ {
		rep := back.ExecuteStep(mixedBatch(n, cells, rng))
		run.Steps = append(run.Steps, snapStep(rep, n))
	}
	return run
}

// TestGoldenMachines locks ExecuteStep on the DMMPC and all 2DMOT variants
// (policy × dual-rail × two-stage) to the recorded reference behavior:
// identical values, times, phase counts, contention, network cycles and
// final network stats across seeds.
func TestGoldenMachines(t *testing.T) {
	got := map[string]goldenRun{}
	for _, seed := range []int64{1, 7, 42} {
		for _, ts := range []bool{false, true} {
			dm := NewDMMPC(64, Config{TwoStage: ts})
			got[fmt.Sprintf("dmmpc/twostage=%v/seed=%d", ts, seed)] = runScenario(dm, seed, 5)
		}
		for _, pol := range []mot.Policy{mot.DropOnCollision, mot.QueueOnCollision} {
			for _, dual := range []bool{false, true} {
				for _, ts := range []bool{false, true} {
					mt := NewMOT2D(16, MOTConfig{Policy: pol, DualRail: dual, TwoStage: ts})
					r := runScenario(mt, seed, 5)
					st := mt.Net.Stats()
					r.Stats = &st
					name := fmt.Sprintf("mot2d/policy=%d/dual=%v/twostage=%v/seed=%d", pol, dual, ts, seed)
					got[name] = r
				}
			}
		}
		lu := NewLuccio(16, MOTConfig{})
		r := runScenario(lu, seed, 5)
		st := lu.Net.Stats()
		r.Stats = &st
		got[fmt.Sprintf("luccio/seed=%d", seed)] = r
	}
	path := filepath.Join("testdata", "golden_machines.json")
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string]goldenRun
	readGolden(t, path, &want)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %s missing", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("scenario %s diverged from golden", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("scenario count %d != golden %d", len(got), len(want))
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
