package exposition

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promFamily accumulates what the linter knows about one metric family.
type promFamily struct {
	typ     string
	help    bool
	samples int
}

// histBucket is one le bucket of one histogram label group.
type histBucket struct {
	bound float64
	raw   string
	v     float64
	ln    int
}

// histGroup is one label set (minus le) of one histogram family.
type histGroup struct {
	buckets    []histBucket
	sum, count *float64
}

// Lint checks one exposition against the grammar and the invariants a
// scraper relies on, and returns the problems plus the family and sample
// counts:
//
//   - HELP/TYPE comment grammar; known TYPE kinds; HELP/TYPE precede the
//     family's samples and appear at most once
//   - metric- and label-name character sets; label values correctly
//     quoted with only the \\, \", \n escapes; parseable sample values
//   - no duplicate series (same name + label set twice)
//   - counters named *_total
//   - histogram families expose only *_bucket/_sum/_count, with ascending
//     le bounds, cumulative bucket counts, a +Inf bucket, and
//     _count == the +Inf bucket per label group
//
// Output order is deterministic: line-anchored problems in file order,
// then post-pass problems in first-seen order.
func Lint(data []byte) (problems []string, families, samples int) {
	addf := func(ln int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", ln, fmt.Sprintf(format, args...)))
	}
	fams := map[string]*promFamily{}
	var famOrder []string
	fam := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{}
			fams[name] = f
			famOrder = append(famOrder, name)
		}
		return f
	}
	series := map[string]int{}
	hists := map[string]map[string]*histGroup{}
	histOrder := map[string][]string{}

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if !promMetricNameRe.MatchString(name) {
				addf(ln, "HELP: bad metric name %q", name)
				continue
			}
			f := fam(name)
			if f.help {
				addf(ln, "duplicate HELP for %s", name)
			}
			if f.samples > 0 {
				addf(ln, "HELP for %s after its samples", name)
			}
			f.help = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				addf(ln, "TYPE: want `# TYPE name kind`")
				continue
			}
			if !promMetricNameRe.MatchString(name) {
				addf(ln, "TYPE: bad metric name %q", name)
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				addf(ln, "TYPE %s: unknown kind %q", name, typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				addf(ln, "counter %s should end in _total", name)
			}
			f := fam(name)
			if f.typ != "" {
				addf(ln, "duplicate TYPE for %s", name)
			}
			if f.samples > 0 {
				addf(ln, "TYPE for %s after its samples", name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		name, labels, value, ok := parsePromSample(line, ln, addf)
		if !ok {
			continue
		}
		samples++

		// Histogram sub-series fold into their declared base family.
		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := strings.CutSuffix(name, sfx); ok {
				if f := fams[t]; f != nil && f.typ == "histogram" {
					base, suffix = t, sfx
				}
				break
			}
		}
		f := fams[base]
		if f == nil || f.typ == "" {
			addf(ln, "sample %s has no preceding # TYPE", name)
			f = fam(base)
		} else if f.typ == "histogram" && suffix == "" {
			addf(ln, "histogram %s: sample must be %s_bucket, %s_sum or %s_count", base, base, base, base)
		}
		f.samples++

		key := seriesKey(name, labels)
		if prev, dup := series[key]; dup {
			addf(ln, "duplicate series %s (first at line %d)", key, prev)
		} else {
			series[key] = ln
		}

		if suffix == "" {
			continue
		}
		le, group := "", make([]string, 0, len(labels))
		for _, kv := range labels {
			if suffix == "_bucket" && kv[0] == "le" {
				le = kv[1]
				continue
			}
			group = append(group, kv[0]+"="+kv[1])
		}
		sort.Strings(group)
		gkey := strings.Join(group, ",")
		if hists[base] == nil {
			hists[base] = map[string]*histGroup{}
		}
		g := hists[base][gkey]
		if g == nil {
			g = &histGroup{}
			hists[base][gkey] = g
			histOrder[base] = append(histOrder[base], gkey)
		}
		v := value
		switch suffix {
		case "_bucket":
			if le == "" {
				addf(ln, "%s_bucket without an le label", base)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				addf(ln, "%s_bucket: bad le %q", base, le)
				continue
			}
			g.buckets = append(g.buckets, histBucket{bound: bound, raw: le, v: v, ln: ln})
		case "_sum":
			if g.sum != nil {
				addf(ln, "duplicate %s_sum for {%s}", base, gkey)
			}
			g.sum = &v
		case "_count":
			if g.count != nil {
				addf(ln, "duplicate %s_count for {%s}", base, gkey)
			}
			g.count = &v
		}
	}

	// Post-pass: families need HELP; histogram groups need the cumulative
	// ascending-le shape with +Inf == _count.
	families = len(famOrder)
	for _, name := range famOrder {
		f := fams[name]
		if f.samples > 0 && !f.help {
			problems = append(problems, fmt.Sprintf("family %s has samples but no HELP", name))
		}
		if f.typ != "histogram" {
			continue
		}
		for _, gkey := range histOrder[name] {
			g := hists[name][gkey]
			at := fmt.Sprintf("%s{%s}", name, gkey)
			if len(g.buckets) == 0 {
				problems = append(problems, fmt.Sprintf("%s: no buckets", at))
				continue
			}
			last := g.buckets[len(g.buckets)-1]
			if last.raw != "+Inf" {
				problems = append(problems, fmt.Sprintf("%s: last bucket le=%q, want +Inf", at, last.raw))
			}
			for i := 1; i < len(g.buckets); i++ {
				if g.buckets[i].bound <= g.buckets[i-1].bound {
					problems = append(problems, fmt.Sprintf("line %d: %s: le %q not above %q", g.buckets[i].ln, at, g.buckets[i].raw, g.buckets[i-1].raw))
				}
				if g.buckets[i].v < g.buckets[i-1].v {
					problems = append(problems, fmt.Sprintf("line %d: %s: bucket counts not cumulative (le=%q: %g < %g)", g.buckets[i].ln, at, g.buckets[i].raw, g.buckets[i].v, g.buckets[i-1].v))
				}
			}
			if g.count == nil {
				problems = append(problems, fmt.Sprintf("%s: missing _count", at))
			} else if last.raw == "+Inf" && *g.count != last.v {
				problems = append(problems, fmt.Sprintf("%s: _count %g != +Inf bucket %g", at, *g.count, last.v))
			}
			if g.sum == nil {
				problems = append(problems, fmt.Sprintf("%s: missing _sum", at))
			}
		}
	}
	return problems, families, samples
}

// seriesKey canonicalizes a sample's identity (labels sorted by name).
func seriesKey(name string, labels [][2]string) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, kv := range labels {
		parts[i] = kv[0] + "=" + strconv.Quote(kv[1])
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// parsePromSample parses one sample line: name[{labels}] value [timestamp].
// Label values must be quoted with only the three legal escapes.
func parsePromSample(line string, ln int, addf func(int, string, ...any)) (name string, labels [][2]string, value float64, ok bool) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !promMetricNameRe.MatchString(name) {
		addf(ln, "bad metric name %q", name)
		return
	}
	if i < len(line) && line[i] == '{' {
		i++
		seen := map[string]bool{}
		for {
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j >= len(line) {
				addf(ln, "%s: unterminated label set", name)
				return
			}
			lname := line[i:j]
			if !promLabelNameRe.MatchString(lname) {
				addf(ln, "%s: bad label name %q", name, lname)
				return
			}
			if seen[lname] {
				addf(ln, "%s: duplicate label %q", name, lname)
				return
			}
			seen[lname] = true
			j++
			if j >= len(line) || line[j] != '"' {
				addf(ln, "%s: label %s value not quoted", name, lname)
				return
			}
			j++
			var sb strings.Builder
			closed := false
			for j < len(line) {
				c := line[j]
				if c == '\\' {
					if j+1 >= len(line) {
						addf(ln, "%s: label %s: dangling escape", name, lname)
						return
					}
					switch line[j+1] {
					case '\\':
						sb.WriteByte('\\')
					case '"':
						sb.WriteByte('"')
					case 'n':
						sb.WriteByte('\n')
					default:
						addf(ln, "%s: label %s: illegal escape \\%c", name, lname, line[j+1])
						return
					}
					j += 2
					continue
				}
				if c == '"' {
					closed = true
					j++
					break
				}
				sb.WriteByte(c)
				j++
			}
			if !closed {
				addf(ln, "%s: label %s: unterminated value", name, lname)
				return
			}
			labels = append(labels, [2]string{lname, sb.String()})
			switch {
			case j < len(line) && line[j] == ',':
				i = j + 1
			case j < len(line) && line[j] == '}':
				i = j
			default:
				addf(ln, "%s: label %s: want , or } after its value", name, lname)
				return
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		addf(ln, "%s: missing space before value", name)
		return
	}
	fields := strings.Fields(line[i+1:])
	if len(fields) < 1 || len(fields) > 2 {
		addf(ln, "%s: want `value [timestamp]`, got %q", name, line[i+1:])
		return
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		addf(ln, "%s: bad sample value %q", name, fields[0])
		return
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			addf(ln, "%s: bad timestamp %q", name, fields[1])
			return
		}
	}
	return name, labels, v, true
}
