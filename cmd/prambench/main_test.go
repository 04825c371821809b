package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// TestSmoke runs every workload briefly with all output checks on.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			defer debug.FreeOSMemory()
			res, _ := runOne(name, 1, 300*time.Millisecond, nil, 1)
			if raceEnabled && len(res.Errors) == 1 && strings.HasPrefix(res.Errors[0], "load generator invalid") {
				t.Skip("the instrumented client cannot offer the open loop's rate:", res.Errors[0])
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.Errors)
			}
			for _, m := range append(slices.Clone(endToEndNames), "sim_time_per_step") {
				if v := res.Metrics[m].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite value", m, v)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
		})
	}
}

// flipRead is a backend that returns one wrong read value.
type flipRead struct {
	model.Backend
	step, at int
}

func (f *flipRead) ExecuteStep(b model.Batch) model.StepReport {
	rep := f.Backend.ExecuteStep(b)
	if f.step == f.at {
		for _, r := range b {
			if r.Op == model.OpRead {
				rep.Values[r.Proc]++
				break
			}
		}
	}
	f.step++
	return rep
}

// TestOracleCatchesCorruptRead shows the ideal-P-RAM check is live: one
// wrong value read in the measured window fails the run.
func TestOracleCatchesCorruptRead(t *testing.T) {
	defer debug.FreeOSMemory()
	// Step 700 is past the 500-step warm-up and a read step (reads are even).
	wrap := func(b model.Backend) model.Backend { return &flipRead{Backend: b, at: 700} }
	res, _ := runSim("hotspot-dmmpc", 1, 50*time.Millisecond, nil, 1, wrap)
	if res.Correct {
		t.Fatal("a flipped read value passed the oracle check")
	}
	if !strings.Contains(strings.Join(res.Errors, "\n"), "ideal P-RAM read") {
		t.Fatalf("unexpected failure: %v", res.Errors)
	}
	var out bytes.Buffer
	res.print(&out)
	if !strings.Contains(out.String(), "CHECK FAILED") {
		t.Errorf("failure not printed:\n%s", out.String())
	}
}

// TestTracedMatchesUntraced runs the machine-level workloads traced and
// untraced on one seed: the simulated costs must be identical (runTraced
// fails the result otherwise), every per-layer metric must be reported,
// and the span file must be trace-event JSON.
func TestTracedMatchesUntraced(t *testing.T) {
	dir := t.TempDir()
	for name := range simSpecs {
		t.Run(name, func(t *testing.T) {
			defer debug.FreeOSMemory()
			res, err := runTraced(name, 1, 200*time.Millisecond, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.Errors)
			}
			for _, m := range perLayerNames {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("span file: %v", err)
			}
			steps := 0
			for _, e := range doc.TraceEvents {
				if e.Name == "quorum.Machine.ExecuteStep" && e.Ph == "X" {
					steps++
				}
			}
			if steps == 0 {
				t.Error("span file holds no ExecuteStep spans")
			}
		})
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the tool in step. The file
// gates every workload but uniform-mot2d and serve-closed, which repeat too
// poorly on a shared host (README.md says why).
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	gated := slices.DeleteFunc(slices.Clone(workloadNames), func(w string) bool {
		return w == "uniform-mot2d" || w == "serve-closed"
	})
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(spec.Workloads), gated},
		{"end_to_end", names(spec.EndToEnd), endToEndNames},
		{"per_layer", names(spec.PerLayer), perLayerNames},
	} {
		if !slices.Equal(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json lists %v, prambench reports %v", c.what, c.json, c.got)
		}
	}
}

// TestOneLine checks the one-line result's shape and that an infinite
// percentile stays valid JSON.
func TestOneLine(t *testing.T) {
	r := newResult("w", false)
	r.Attempted = 3
	r.set("a", math.Inf(1), "ms", 3)
	r.set("b", 1.5, "s", 1)
	line, err := r.oneLine([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	if a := got["metrics"].(map[string]any)["a"].(map[string]any)["value"].(float64); a != math.MaxFloat64 {
		t.Errorf("+Inf rendered as %v", a)
	}
}

// TestSpreadMatchesPython pins the quartile spread to Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75 and
// 8.25 around a median of 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 100.5, 99.5, 100.2}
	lat := gate{name: "latency_ms_p50", lower: true, bound: 0.1}
	rate := gate{name: "steps_per_s", bound: 0.1}
	for _, c := range []struct {
		g          gate
		base, cand []float64
		want       string
	}{
		{lat, tight, []float64{120, 121, 119, 120.5}, "worse"},
		{lat, tight, []float64{80, 81, 79, 80.5}, "better"},
		{lat, tight, []float64{103, 104, 102, 103.5}, "within bound"},
		{rate, tight, []float64{80, 81, 79, 80.5}, "worse"},
		{lat, []float64{50, 100, 150, 200}, tight, "unresolved"},
		{lat, []float64{150, 200, 250, 300}, tight, "better"},
		{gate{name: "sim_time_per_step", lower: true}, []float64{6.3}, []float64{6.3}, "within bound"},
		{gate{name: "sim_time_per_step", lower: true}, []float64{6.3}, []float64{6.31}, "worse"},
	} {
		if got := judge(c.g, c.base, c.cand).verdict; got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.g.name, c.base, c.cand, got, c.want)
		}
	}
}

// TestCompareCLI runs -compare on two results files with one regression.
func TestCompareCLI(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		r := newResult("hotspot-dmmpc", false)
		r.set("latency_ms_p50", p50, "ms", 100)
		r.set("steps_per_s", 1000, "steps/s", 100)
		data, err := json.Marshal(report{Seed: 1, Results: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.json", 1), write("b.json", 2)
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", a, b}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "within bound") {
		t.Errorf("table:\n%s", out.String())
	}
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
