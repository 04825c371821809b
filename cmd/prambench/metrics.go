package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// The metric names BENCHMARK.json declares (TestBenchmarkJSONNames keeps the
// two in step). Every workload reports every one of them: the end-to-end
// set from an untraced run, the per-layer set from a traced run. Metrics
// that exist on some workloads only (the machine coordinator, the 2DMOT
// router, HTTP, exposition, the load generator) are printed by the tool
// itself; BENCHMARK.json does not list them. Nor does it list
// latency_ms_p99, which every workload prints: on a shared host it follows
// the host's stalls, not the program (README.md gives the spreads).
var (
	endToEndNames = []string{
		"setup_s", "steps_per_s", "latency_ms_p50", "heap_mb",
	}
	perLayerNames = []string{
		"input.gen_ms_per_step",
		"exec.call_ms_p50", "exec.call_ms_p99",
		"memmap.generate_s", "quorum.store_mb",
		"quorum.requests_per_step", "quorum.dedup_requests_per_step", "quorum.dedup_ratio",
		"quorum.phases_per_step", "quorum.read_phases_per_step",
		"quorum.copy_accesses_per_step", "quorum.live_area_per_step", "quorum.max_module_load",
		"sim_time_per_step", "trace.overhead_ratio",
	}
)

// metric is one measured value with its unit and the number of samples it
// summarizes (1 for a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// MarshalJSON renders +Inf (a percentile that landed on a failed op) as the
// largest finite float, since JSON has no infinity.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	p := plain(m)
	p.Value = finite(p.Value)
	return json.Marshal(p)
}

func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1) || math.IsNaN(v):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// result is one workload's outcome: correctness, op accounting and metrics.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Correct: true, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string, n int64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// fail records a failed output check; the run's numbers are then discarded.
func (r *result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// print writes one line per metric: workload, name, value, unit, samples.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.8g %s (n=%d)\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.Workload, e)
	}
}

// oneLine is the single-line JSON result BENCHMARK.json's command prints
// last: exactly the named metrics, each with its value and unit.
func (r *result) oneLine(names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if r.Correct {
		for _, name := range names {
			m := r.Metrics[name]
			out.Metrics[name] = value{Value: finite(m.Value), Unit: m.Unit}
		}
	}
	return json.Marshal(out)
}

// samples collects per-op values in milliseconds; a failed op is +Inf, so
// it counts as missing every latency limit.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }
func (s *samples) addFailed()          { *s = append(*s, math.Inf(1)) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) max() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Max(s)
}

// The window's time-ordered op samples are cut into up to maxChunks
// consecutive chunks of at least minChunk samples, and a percentile is
// reported as its median over the chunks. A burst of interference from the
// host then moves one chunk, not the result; minChunk keeps ten samples
// beyond each chunk's 99th percentile. In a 25 s window, serve-open's
// chunks span about 0.6 s each.
const (
	maxChunks = 40
	minChunk  = 1000
)

// chunkMedian returns the median over chunks of f.
func chunkMedian(s samples, f func(samples) float64) float64 {
	c := max(1, min(maxChunks, len(s)/minChunk))
	v := make([]float64, c)
	for i := range v {
		v[i] = f(s[i*len(s)/c : (i+1)*len(s)/c])
	}
	return median(v)
}

// rate is ops per second of back-to-back op latencies. It is taken over the
// whole window, not per chunk: the host's slow periods last seconds to
// minutes, so a chunk median repeated no better across runs than the mean.
func (s samples) rate() float64 {
	var total float64
	for _, v := range s {
		total += v
	}
	return ratio(float64(len(s)), total/1000)
}

func (s samples) p50() float64 { return s.quantile(0.50) }
func (s samples) p99() float64 { return s.quantile(0.99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value (mean of the two middle ones).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// calibrate times a fixed pure-CPU loop and returns nanoseconds per
// iteration, so results from different hosts can be put side by side.
func calibrate() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ns := float64(time.Since(start)) / iters
	calibrationSink = x
	return ns
}

var calibrationSink uint64
