// Package stats provides the small reporting toolkit of the experiment
// harness and the CLIs: tables rendered as aligned text, Markdown or CSV,
// and growth-shape fits of a measured series against the paper's target
// functions (log n, log²n, log²n/log log n, …).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns — the
// format cmd/experiments prints and EXPERIMENTS.md records.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column names.
func NewTable(cols ...string) *Table {
	return &Table{header: cols}
}

// AddRow appends a row; values are rendered with %v, floats with %.3g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table (the
// format EXPERIMENTS.md records).
func (t *Table) Markdown() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = "---"
	}
	sb.WriteString("|" + strings.Join(rule, "|") + "|\n")
	for _, r := range t.rows {
		cells := make([]string, len(t.header))
		for i := range cells {
			if i < len(r) {
				cells[i] = r[i]
			}
		}
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 comma-separated values (header first)
// — the machine-readable form replay-driven sweeps emit for downstream
// plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRec := func(cells []string) {
		for i := range t.header {
			if i > 0 {
				sb.WriteByte(',')
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRec(t.header)
	for _, r := range t.rows {
		writeRec(r)
	}
	return sb.String()
}

// Growth names a target growth function for shape fitting.
type Growth struct {
	Name string
	F    func(n float64) float64
}

// Standard growth functions from the paper's bounds.
var (
	GrowthConst          = Growth{"1", func(n float64) float64 { return 1 }}
	GrowthLog            = Growth{"log n", math.Log2}
	GrowthLog2           = Growth{"log² n", func(n float64) float64 { l := math.Log2(n); return l * l }}
	GrowthLog2OverLogLog = Growth{"log²n/loglog n", func(n float64) float64 {
		l := math.Log2(n)
		ll := math.Log2(l)
		if ll < 1 {
			ll = 1
		}
		return l * l / ll
	}}
	GrowthLinear = Growth{"n", func(n float64) float64 { return n }}
	GrowthSqrt   = Growth{"sqrt n", math.Sqrt}
)

// FitResult reports how well a measured series matches a growth function:
// the spread (max/min) of the ratio series y_i / f(n_i). Spread near 1
// means the shape matches; spread growing with the range means it does
// not.
type FitResult struct {
	Growth Growth
	LoC    float64 // min ratio ("constant" from below)
	HiC    float64 // max ratio ("constant" from above)
	Spread float64 // HiC / LoC
}

// Fit computes the ratio spread of ys against g over sample points ns.
func Fit(ns []float64, ys []float64, g Growth) FitResult {
	if len(ns) != len(ys) || len(ns) == 0 {
		panic("stats.Fit: need equal-length nonempty series")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range ns {
		d := g.F(ns[i])
		if d <= 0 {
			panic("stats.Fit: growth function must be positive on the sample")
		}
		r := ys[i] / d
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return FitResult{Growth: g, LoC: lo, HiC: hi, Spread: hi / lo}
}

// BestFit returns the candidate growth with the smallest ratio spread —
// the shape the measured series most plausibly follows.
func BestFit(ns, ys []float64, candidates ...Growth) FitResult {
	if len(candidates) == 0 {
		panic("stats.BestFit: need candidates")
	}
	best := Fit(ns, ys, candidates[0])
	for _, g := range candidates[1:] {
		if f := Fit(ns, ys, g); f.Spread < best.Spread {
			best = f
		}
	}
	return best
}
