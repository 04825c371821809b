package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBenchSpec reads BENCHMARK.json from the repository root, whether the
// tool runs from there or from its own directory.
func loadBenchSpec() (*benchSpec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", errors.Join(errs...))
}

// gate is one compared metric: its direction and the share of the baseline
// median by which it may worsen.
type gate struct {
	name  string
	lower bool
	bound float64
}

// runCompare reads two sides of results files (each a comma-separated list
// of -out files, e.g. ten seeds of one commit) and judges every end-to-end
// metric of every workload by BENCHMARK.json's bounds, plus the simulated
// cost, whose bound is 0 because it repeats exactly. It returns an error
// when any metric got worse.
func runCompare(w io.Writer, a, b string) error {
	spec, err := loadBenchSpec()
	if err != nil {
		return err
	}
	gates := []gate{{name: "sim_time_per_step", lower: true}}
	for _, m := range spec.EndToEnd {
		gates = append(gates, gate{name: m.Name, lower: m.Better == "lower", bound: m.Bound})
	}
	base, err := loadSide(a)
	if err != nil {
		return err
	}
	cand, err := loadSide(b)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		if _, ok := cand[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears on both sides")
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tchange\tbound\tspread\tverdict")
	worse := 0
	for _, k := range keys {
		for _, g := range gates {
			va, vb := base[k][g.name], cand[k][g.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(g, va, vb)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (n=%d)\t%.6g (n=%d)\t%+.2f%%\t%.0f%%\t%.1f%%\t%s\n",
				k, g.name, median(va), len(va), median(vb), len(vb), 100*v.change, 100*g.bound, 100*v.spread, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

type judgement struct {
	change  float64 // relative change of the median, positive = worse
	spread  float64 // wider of the two sides' quartile spreads, as a share of the median
	verdict string
}

// judge applies a bound: worse or better beyond it, within it, or
// unresolved when either side's run-to-run spread exceeds it, unless every
// candidate run beats every baseline run.
func judge(g gate, base, cand []float64) judgement {
	ma, mb := median(base), median(cand)
	j := judgement{spread: max(spread(base), spread(cand))}
	if ma != 0 {
		j.change = (mb - ma) / math.Abs(ma)
	} else if mb != 0 {
		j.change = math.Copysign(math.Inf(1), mb)
	}
	if !g.lower && j.change != 0 {
		j.change = -j.change
	}
	switch {
	case j.spread > g.bound && allBetter(g, base, cand):
		j.verdict = "better"
	case j.spread > g.bound:
		j.verdict = "unresolved"
	case j.change > g.bound:
		j.verdict = "worse"
	case -j.change > g.bound:
		j.verdict = "better"
	default:
		j.verdict = "within bound"
	}
	return j
}

func allBetter(g gate, base, cand []float64) bool {
	if g.lower {
		return slices.Max(cand) < slices.Min(base)
	}
	return slices.Min(cand) > slices.Max(base)
}

// spread is the distance between the first and third quartiles as a share
// of the median, with quartiles computed as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// loadSide reads a comma-separated list of results files into values per
// workload and metric, one value per run. Traced runs form their own
// workload rows.
func loadSide(list string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range strings.Split(list, ",") {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rep.Results {
			if !r.Correct {
				return nil, fmt.Errorf("%s: %s failed its output checks", p, r.Workload)
			}
			k := r.Workload
			if r.Traced {
				k += " (traced)"
			}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[k][name] = append(out[k][name], m.Value)
			}
		}
	}
	return out, nil
}
