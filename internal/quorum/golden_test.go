package quorum

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenResult is the engine-observable outcome of one batch.
type goldenResult struct {
	Phases        int          `json:"phases"`
	Time          int64        `json:"time"`
	CopyAccesses  int64        `json:"copyAccesses"`
	MaxModuleLoad int          `json:"maxModuleLoad"`
	LivePerPhase  []int        `json:"liveTrace"`
	Values        []model.Word `json:"values"`
	Satisfied     []bool       `json:"satisfied"`
	Stalled       bool         `json:"stalled"`
	Stage1Phases  int          `json:"stage1Phases"`
	Stage2Phases  int          `json:"stage2Phases"`
}

func snapResult(r Result) goldenResult {
	g := goldenResult{
		Phases:        r.Phases,
		Time:          r.Time,
		CopyAccesses:  r.CopyAccesses,
		MaxModuleLoad: r.MaxModuleLoad,
		Stalled:       r.Stalled,
		Stage1Phases:  r.Stage1Phases,
		Stage2Phases:  r.Stage2Phases,
	}
	g.LivePerPhase = append([]int{}, r.LivePerPhase...)
	g.Values = append([]model.Word{}, r.Values...)
	g.Satisfied = append([]bool{}, r.Satisfied...)
	return g
}

// engineScenario runs a deterministic write-then-read workload through the
// engine over the complete bipartite interconnect and records every Result.
func engineScenario(n int, twoStage bool, seed int64) []goldenResult {
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, seed))
	eng := NewEngine(st, NewCompleteBipartite(), n)
	rng := rand.New(rand.NewSource(seed * 31))
	var out []goldenResult
	run := func(reqs []Request) Result {
		if twoStage {
			return eng.ExecuteBatchTwoStage(reqs, TwoStageConfig{})
		}
		return eng.ExecuteBatch(reqs)
	}
	for round := 0; round < 4; round++ {
		k := 1 + rng.Intn(n)
		writes := make([]Request, 0, k)
		seen := map[int]bool{}
		for i := 0; i < k; i++ {
			v := rng.Intn(p.M / 4)
			if seen[v] {
				continue
			}
			seen[v] = true
			writes = append(writes, Request{
				Proc:  rng.Intn(n),
				Var:   v,
				Write: true,
				Value: rng.Int63n(1 << 30),
			})
		}
		out = append(out, snapResult(run(writes)))
		reads := make([]Request, len(writes))
		for i, w := range writes {
			reads[i] = Request{Proc: w.Proc, Var: w.Var}
		}
		out = append(out, snapResult(run(reads)))
	}
	return out
}

// TestGoldenEngineBatches locks ExecuteBatch and ExecuteBatchTwoStage to the
// recorded phase counts, times, per-phase live counts, values and satisfied bits of
// the reference implementation.
func TestGoldenEngineBatches(t *testing.T) {
	got := map[string][]goldenResult{}
	for _, twoStage := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42} {
			name := fmt.Sprintf("twostage=%v/seed=%d", twoStage, seed)
			got[name] = engineScenario(64, twoStage, seed)
		}
	}
	path := filepath.Join("testdata", "golden_engine.json")
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string][]goldenResult
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
