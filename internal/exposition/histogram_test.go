package exposition

import (
	"strings"
	"testing"
)

// TestHistogramBucketing pins the power-of-two bucket boundaries: bucket i
// holds 2^(i-1) < v ≤ 2^i with v ≤ 1 in bucket 0, and everything past the
// last finite boundary in the overflow slot.
func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(4) // boundaries 1, 2, 4, 8, +Inf
	for _, tc := range []struct {
		v      int64
		bucket int
	}{
		{-3, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2},
		{5, 3}, {8, 3}, {9, 4}, {100, 4},
	} {
		before := h.BucketCount(tc.bucket)
		h.Observe(tc.v)
		if got := h.BucketCount(tc.bucket); got != before+1 {
			t.Errorf("Observe(%d) did not land in bucket %d", tc.v, tc.bucket)
		}
	}
	if h.Count() != 10 {
		t.Errorf("count %d, want 10", h.Count())
	}
	// The -3 observation clamps to 0 before summing.
	if want := int64(0 + 0 + 1 + 2 + 3 + 4 + 5 + 8 + 9 + 100); h.Sum() != want {
		t.Errorf("sum %d, want %d", h.Sum(), want)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.BucketCount(0) != 0 {
		t.Error("Reset left state behind")
	}
}

// TestHistogramOrderInvariance locks the determinism property the serving
// tests build on: bucket contents are a pure function of the observation
// multiset, independent of order.
func TestHistogramOrderInvariance(t *testing.T) {
	vals := []int64{7, 1, 900, 3, 3, 64, 0, 31}
	a, b := NewHistogram(8), NewHistogram(8)
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	for i := 0; i <= a.Buckets(); i++ {
		if a.BucketCount(i) != b.BucketCount(i) {
			t.Errorf("bucket %d differs by order: %d vs %d", i, a.BucketCount(i), b.BucketCount(i))
		}
	}
	if a.Sum() != b.Sum() || a.Count() != b.Count() {
		t.Error("sum/count differ by order")
	}
}

// TestHistogramObserveZeroAllocs locks the hot-path invariant the serving
// round depends on: observing is pure arithmetic on preallocated state.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	h := NewHistogram(24)
	v := int64(0)
	if avg := testing.AllocsPerRun(200, func() {
		h.Observe(v)
		v += 37
	}); avg != 0 {
		t.Errorf("Observe allocates %.2f/op, want 0", avg)
	}
}

// histCollector exposes one histogram family for the rendering tests.
type histCollector struct {
	name   string
	groups []struct {
		labels string
		h      *Histogram
	}
}

func (c *histCollector) Describe(desc func(Desc)) {
	desc(Desc{Name: c.name, Help: "test histogram", Type: "histogram"})
}

func (c *histCollector) Collect(emit func(Sample)) {
	for _, g := range c.groups {
		EmitHistogram(emit, c.name, g.labels, g.h)
	}
}

// TestHistogramExposition pins the full text rendering of a histogram
// family: one HELP/TYPE header, cumulative buckets in ascending numeric le
// order (which a lexical label sort would destroy: "16" < "2"), the +Inf
// bucket equal to _count, and per-group sub-series kept together.
func TestHistogramExposition(t *testing.T) {
	h := NewHistogram(5) // le 1,2,4,8,16,+Inf
	for _, v := range []int64{1, 2, 3, 16, 17, 1000} {
		h.Observe(v)
	}
	c := &histCollector{name: "test_rounds"}
	c.groups = append(c.groups, struct {
		labels string
		h      *Histogram
	}{Label("tenant", "a"), h})
	var reg Registry
	reg.Register(c)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_rounds test histogram
# TYPE test_rounds histogram
test_rounds_bucket{tenant="a",le="1"} 1
test_rounds_bucket{tenant="a",le="2"} 2
test_rounds_bucket{tenant="a",le="4"} 3
test_rounds_bucket{tenant="a",le="8"} 3
test_rounds_bucket{tenant="a",le="16"} 4
test_rounds_bucket{tenant="a",le="+Inf"} 6
test_rounds_sum{tenant="a"} 1039
test_rounds_count{tenant="a"} 6
`
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestHistogramExpositionMultiGroup checks that several label groups of one
// family render under a single header, each group's buckets, sum and count
// contiguous and in emission order.
func TestHistogramExpositionMultiGroup(t *testing.T) {
	c := &histCollector{name: "multi"}
	for _, name := range []string{"z", "a"} { // deliberately not sorted
		h := NewHistogram(1)
		h.Observe(1)
		c.groups = append(c.groups, struct {
			labels string
			h      *Histogram
		}{Label("tenant", name), h})
	}
	var reg Registry
	reg.Register(c)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE multi histogram") != 1 {
		t.Errorf("want exactly one TYPE line:\n%s", out)
	}
	zi := strings.Index(out, `multi_count{tenant="z"}`)
	ai := strings.Index(out, `multi_bucket{tenant="a",le="1"}`)
	if zi < 0 || ai < 0 || zi > ai {
		t.Errorf("groups reordered or split (emission order must hold):\n%s", out)
	}
}
