package exposition

import (
	"strings"
	"testing"
)

// lintGood is a well-formed exposition with a labeled histogram.
const lintGood = `# HELP demo_total a counter
# TYPE demo_total counter
demo_total{tenant="a \"x\"\n\\y"} 3
# HELP lat latency
# TYPE lat histogram
lat_bucket{tenant="a",le="1"} 1
lat_bucket{tenant="a",le="2"} 4
lat_bucket{tenant="a",le="+Inf"} 5
lat_sum{tenant="a"} 9.5
lat_count{tenant="a"} 5
# HELP g a gauge
# TYPE g gauge
g 0.25 1700000000000
`

// lintBad lists malformed expositions, each with the text of the problem
// Lint must report.
var lintBad = []struct {
	name, in, want string
}{
	{"no type", "x_total 1\n", "no preceding # TYPE"},
	{"bad kind", "# TYPE x_total counterz\nx_total 1\n", "unknown kind"},
	{"counter name", "# HELP x c\n# TYPE x counter\nx 1\n", "should end in _total"},
	{"dup series", "# HELP x_total c\n# TYPE x_total counter\nx_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n", "duplicate series"},
	{"bad escape", "# HELP x_total c\n# TYPE x_total counter\nx_total{a=\"\\t\"} 1\n", "illegal escape"},
	{"unquoted", "# HELP x_total c\n# TYPE x_total counter\nx_total{a=1} 1\n", "not quoted"},
	{"no label separator", "# HELP x_total c\n# TYPE x_total counter\nx_total{a=\"1\"b=\"2\"} 1\n", "want , or }"},
	{"unterminated labels", "# HELP x_total c\n# TYPE x_total counter\nx_total{a=\"1\" 1\n", "want , or }"},
	{"bad value", "# HELP x_total c\n# TYPE x_total counter\nx_total one\n", "bad sample value"},
	{"no help", "# TYPE x_total counter\nx_total 1\n", "no HELP"},
	{"help after", "x_total 1\n# HELP x_total c\n# TYPE x_total counter\n", "after its samples"},
	{"hist bare sample", "# HELP h l\n# TYPE h histogram\nh 1\n", "must be h_bucket"},
	{"hist no inf", "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "want +Inf"},
	{"hist not cumulative", "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not cumulative"},
	{"hist le order", "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "not above"},
	{"hist count mismatch", "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "_count 3 != +Inf bucket 2"},
	{"hist no sum", "# HELP h l\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n", "missing _sum"},
}

// TestLintGood: a well-formed exposition passes clean.
func TestLintGood(t *testing.T) {
	problems, families, samples := Lint([]byte(lintGood))
	if len(problems) != 0 {
		t.Errorf("clean exposition flagged: %v", problems)
	}
	if families != 3 || samples != 7 {
		t.Errorf("families=%d samples=%d, want 3/7", families, samples)
	}
}

// TestLintBad: each malformation is caught with a problem that names the
// defect.
func TestLintBad(t *testing.T) {
	for _, tc := range lintBad {
		problems, _, _ := Lint([]byte(tc.in))
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v do not mention %q", tc.name, problems, tc.want)
		}
	}
}

// renderFuzzed renders one counter, one gauge and one histogram family
// whose help text, label values and sample values come from the fuzzer.
func renderFuzzed(help, label string, value float64, obs []int64) string {
	h := NewHistogram(6)
	for _, v := range obs {
		h.Observe(v)
	}
	c := &histCollector{name: "fuzz_rounds"}
	c.groups = append(c.groups, struct {
		labels string
		h      *Histogram
	}{Labels(Label("tenant", label), Label("shard", "0")), h})
	var r Registry
	r.Register(&fakeCollector{
		descs: []Desc{
			{Name: "fuzz_steps_total", Help: help, Type: "counter"},
			{Name: "fuzz_queue_depth", Help: help, Type: "gauge"},
		},
		samples: []Sample{
			{Name: "fuzz_steps_total", Value: value},
			{Name: "fuzz_steps_total", Labels: Label("tenant", label), Value: value},
			{Name: "fuzz_queue_depth", Labels: Label("tenant", label), Value: -value},
		},
	})
	r.Register(c)
	var sb strings.Builder
	r.WriteTo(&sb) // a strings.Builder write cannot fail
	return sb.String()
}

// FuzzLint: Lint never panics on arbitrary bytes, and every exposition
// the Registry renders, whatever its help text, label values and sample
// values, lints with zero problems.
func FuzzLint(f *testing.F) {
	f.Add([]byte(lintGood), "a counter", "a \"x\"\n\\y", 3.0, int64(5), int64(1000))
	for _, tc := range lintBad {
		f.Add([]byte(tc.in), tc.name, tc.want, 2.5, int64(0), int64(17))
	}
	f.Add([]byte(renderFuzzed("line\nbreak and back\\slash", `evil"t\en{ant}`+"\n0", 12, []int64{1, 2, 3, 16})),
		"line\nbreak", "a\"b\\c\nd", -1.5, int64(-3), int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, help, label string, value float64, obs1, obs2 int64) {
		Lint(data)
		out := renderFuzzed(help, label, value, []int64{obs1, obs2})
		if problems, _, _ := Lint([]byte(out)); len(problems) != 0 {
			t.Fatalf("rendered exposition flagged: %v\n%s", problems, out)
		}
	})
}
