// Package exposition renders and checks the Prometheus text exposition
// format (version 0.0.4) without a client library, so serving deployments
// (repro/internal/serve, cmd/serve) can export per-tenant and per-shard
// state to any standard scraper, or dump it to a file. It holds three
// pieces: a Registry of Collectors, an allocation-free power-of-two
// Histogram for the serving lane's virtual-time measurements, and Lint, a
// dependency-free exposition linter that `serve promlint` and the tests
// run over /metrics scrapes and goldens.
//
// The design is snapshot-based: collectors are closures that EMIT samples
// when the registry renders, reading whatever live counters they close
// over at that moment. Nothing is recorded on the hot path — incrementing
// a served-steps counter is an int64 add in the owner's own struct — so
// registering metrics cannot disturb the zero-allocation serving
// invariant. Rendering allocates freely; it runs off the hot path.
package exposition

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sample is one exposition line: a metric name, an optional pre-rendered
// label set (`tenant="a",shard="3"` — no braces), and a value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Desc describes one metric family (name, help text, and type — "counter",
// "gauge", or "histogram"). A histogram family's samples are the three
// sub-series EmitHistogram renders (Name_bucket with `le` labels, Name_sum,
// Name_count); the registry groups them under the family's one HELP/TYPE
// header and preserves their emission order, because cumulative `le`
// buckets must render in ascending numeric order and a lexical label sort
// would put le="16" before le="2".
type Desc struct {
	Name string
	Help string
	Type string
}

// Collector emits the current samples of the metric families it owns.
// Collectors run on the rendering goroutine; implementations that read
// counters mutated by another goroutine must do their own synchronization
// (the serving front end renders only between rounds or after drain).
type Collector interface {
	Describe(desc func(Desc))
	Collect(emit func(Sample))
}

// Registry renders registered collectors in the Prometheus text format.
// The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// Register adds a collector. Collectors render in registration order.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// WriteTo renders every registered collector's families: one # HELP and
// # TYPE line per family (in Describe order), then its samples sorted by
// label string for a stable output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	var descs []Desc
	byName := make(map[string][]Sample)
	// alias maps a histogram family's three sub-series names to the family
	// name, so their samples collect under one header in emission order.
	alias := map[string]string{}
	for _, c := range collectors {
		c.Describe(func(d Desc) {
			if _, dup := byName[d.Name]; !dup {
				byName[d.Name] = nil
				descs = append(descs, d)
				if d.Type == "histogram" {
					alias[d.Name+"_bucket"] = d.Name
					alias[d.Name+"_sum"] = d.Name
					alias[d.Name+"_count"] = d.Name
				}
			}
		})
		c.Collect(func(s Sample) {
			name := s.Name
			if fam, ok := alias[name]; ok {
				name = fam
			}
			byName[name] = append(byName[name], s)
		})
	}
	var sb strings.Builder
	emitSample := func(s Sample) {
		if s.Labels == "" {
			fmt.Fprintf(&sb, "%s %s\n", s.Name, formatValue(s.Value))
		} else {
			fmt.Fprintf(&sb, "%s{%s} %s\n", s.Name, s.Labels, formatValue(s.Value))
		}
	}
	writeSamples := func(samples []Sample, keepOrder bool) {
		if !keepOrder {
			sort.SliceStable(samples, func(i, j int) bool { return samples[i].Labels < samples[j].Labels })
		}
		for _, s := range samples {
			emitSample(s)
		}
	}
	described := make(map[string]bool, len(descs))
	for _, d := range descs {
		described[d.Name] = true
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", d.Name, escapeHelp(d.Help), d.Name, d.Type)
		// Histogram sub-series render exactly as emitted: per label group,
		// ascending cumulative buckets, then the group's sum and count.
		writeSamples(byName[d.Name], d.Type == "histogram")
	}
	// Samples whose family was never described (a Collect/Describe drift)
	// still render — as untyped families, sorted by name — rather than
	// silently vanishing from the exposition.
	var extras []string
	//pram:unordered key collection; extras is sorted before rendering
	for name := range byName {
		if !described[name] && len(byName[name]) > 0 {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(&sb, "# TYPE %s untyped\n", name)
		writeSamples(byName[name], false)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// formatValue renders a sample value: integers without an exponent (the
// common case for step and queue counters), everything else via %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes a HELP text per the exposition format: backslash and
// newline (double quotes are legal in help text, unlike label values). An
// unescaped newline would split the comment mid-line and corrupt every
// family after it.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// Label renders one key="value" label pair, escaping the value per the
// exposition format (backslash, double quote, newline).
func Label(key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return key + `="` + esc + `"`
}

// Labels joins rendered label pairs.
func Labels(pairs ...string) string { return strings.Join(pairs, ",") }

// EmitHistogram renders h as the three sub-series of a Prometheus
// histogram family: cumulative `_bucket` samples in ascending `le` order
// (finite power-of-two boundaries, then `+Inf`), `_sum`, and `_count`.
// labels is the family's pre-rendered label set ("" for none); the `le`
// pair is appended to it per bucket. Call from a Collector whose Describe
// declared name with Type "histogram". Rendering allocates; it runs off
// the hot path like all collection.
func EmitHistogram(emit func(Sample), name, labels string, h *Histogram) {
	withLE := func(le string) string {
		if labels == "" {
			return `le="` + le + `"`
		}
		return labels + `,le="` + le + `"`
	}
	cum := int64(0)
	bound := int64(1)
	for i := 0; i < h.Buckets(); i++ {
		cum += h.BucketCount(i)
		emit(Sample{Name: name + "_bucket", Labels: withLE(strconv.FormatInt(bound, 10)), Value: float64(cum)})
		bound *= 2
	}
	cum += h.BucketCount(h.Buckets())
	emit(Sample{Name: name + "_bucket", Labels: withLE("+Inf"), Value: float64(cum)})
	emit(Sample{Name: name + "_sum", Labels: labels, Value: float64(h.Sum())})
	emit(Sample{Name: name + "_count", Labels: labels, Value: float64(cum)})
}
