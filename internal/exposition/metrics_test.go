package exposition

import (
	"strings"
	"testing"
)

// fakeCollector emits a fixed family set.
type fakeCollector struct {
	descs   []Desc
	samples []Sample
}

func (f *fakeCollector) Describe(desc func(Desc)) {
	for _, d := range f.descs {
		desc(d)
	}
}

func (f *fakeCollector) Collect(emit func(Sample)) {
	for _, s := range f.samples {
		emit(s)
	}
}

// TestRegistryExposition pins the text format: HELP/TYPE once per family,
// samples sorted by label string, integer values rendered plainly.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	r.Register(&fakeCollector{
		descs: []Desc{
			{Name: "serve_steps_total", Help: "steps served", Type: "counter"},
			{Name: "serve_queue_depth", Help: "queued step credits", Type: "gauge"},
		},
		samples: []Sample{
			{Name: "serve_steps_total", Labels: Label("tenant", "b"), Value: 7},
			{Name: "serve_steps_total", Labels: Label("tenant", "a"), Value: 12},
			{Name: "serve_queue_depth", Value: 2.5},
		},
	})
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP serve_steps_total steps served
# TYPE serve_steps_total counter
serve_steps_total{tenant="a"} 12
serve_steps_total{tenant="b"} 7
# HELP serve_queue_depth queued step credits
# TYPE serve_queue_depth gauge
serve_queue_depth 2.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryUndeclaredSample pins the drift safety net: a sample whose
// family was never described still renders (as an untyped family) instead
// of silently vanishing.
func TestRegistryUndeclaredSample(t *testing.T) {
	var r Registry
	r.Register(&fakeCollector{
		descs:   []Desc{{Name: "declared_total", Help: "h", Type: "counter"}},
		samples: []Sample{{Name: "declared_total", Value: 1}, {Name: "undeclared_total", Value: 3}},
	})
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP declared_total h
# TYPE declared_total counter
declared_total 1
# TYPE undeclared_total untyped
undeclared_total 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHelpEscaping covers the HELP-line escapes: an unescaped newline in a
// help text would split the comment mid-line and corrupt every family
// after it.
func TestHelpEscaping(t *testing.T) {
	var r Registry
	r.Register(&fakeCollector{
		descs:   []Desc{{Name: "hostile_total", Help: "line\nbreak and back\\slash", Type: "counter"}},
		samples: []Sample{{Name: "hostile_total", Value: 1}},
	})
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hostile_total line\nbreak and back\\slash
# TYPE hostile_total counter
hostile_total 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping covers the three escapes the format requires.
func TestLabelEscaping(t *testing.T) {
	got := Label("name", "a\"b\\c\nd")
	want := `name="a\"b\\c\nd"`
	if got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
	if got := Labels(Label("a", "1"), Label("b", "2")); got != `a="1",b="2"` {
		t.Errorf("Labels = %s", got)
	}
}
