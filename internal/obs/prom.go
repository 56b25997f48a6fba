package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) exposition of a registry
// snapshot. The output is deterministic: families are sorted by
// exposition name, series within a family by their label rendering,
// and floats render with strconv's shortest round-trip form — two
// snapshots of the same state are byte-identical.

// promName sanitizes a metric name to the exposition charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. ':' passes through because the format
// allows it (the repo's own names carry dimensions as labels, never
// in the name); anything else invalid (e.g. a '-' as in
// "pool_breaker_half-open") maps to '_'.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName sanitizes a label key to [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promFloat renders a float in shortest round-trip form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a sorted {k="v",...} block ("" when empty).
// extraK/extraV, when non-empty, is appended last (the histogram
// "le" label).
func promLabels(labels map[string]string, extraK, extraV string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, promLabelName(k)+`="`+promEscape(labels[k])+`"`)
	}
	if extraK != "" {
		parts = append(parts, extraK+`="`+promEscape(extraV)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promFamily is one exposition family being assembled: flat metrics
// contribute a single unlabeled series, vec families one series per
// child; same-name same-type families merge.
type promFamily struct {
	name  string
	typ   string // "counter" | "gauge" | "histogram"
	lines []string
}

// writeHistSeries appends one histogram series (cumulative buckets,
// +Inf, _sum, _count) to the family.
func (f *promFamily) writeHistSeries(labels map[string]string, h HistogramSnapshot) {
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		f.lines = append(f.lines, f.name+"_bucket"+
			promLabels(labels, "le", promFloat(bound))+" "+
			strconv.FormatInt(cum, 10))
	}
	f.lines = append(f.lines, f.name+"_bucket"+
		promLabels(labels, "le", "+Inf")+" "+
		strconv.FormatInt(h.Count, 10))
	f.lines = append(f.lines, f.name+"_sum"+promLabels(labels, "", "")+
		" "+promFloat(h.Sum))
	f.lines = append(f.lines, f.name+"_count"+promLabels(labels, "", "")+
		" "+strconv.FormatInt(h.Count, 10))
}

// sortedKeys returns m's keys sorted — the deterministic iteration
// order every exposition pass uses.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the snapshot in Prometheus text format with
// deterministic ordering: families sorted by exposition name, flat
// series before labeled ones, labeled series in snapshot (label-
// sorted) order, histogram buckets in ascending le order.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	var family func(name, typ string) *promFamily
	family = func(name, typ string) *promFamily {
		ename := promName(name)
		f := fams[ename]
		if f == nil {
			f = &promFamily{name: ename, typ: typ}
			fams[ename] = f
		}
		if f.typ != typ {
			// Two differently-typed metrics sanitized to one name —
			// rename the newcomer rather than emit a malformed page.
			return family(name+"_"+typ, typ)
		}
		return f
	}
	// Append in sorted original-name order, flat metrics before vec
	// series, so each family's line order is deterministic even when
	// sanitization merges names.
	for _, name := range sortedKeys(s.Counters) {
		f := family(name, "counter")
		f.lines = append(f.lines, f.name+" "+strconv.FormatInt(s.Counters[name], 10))
	}
	for _, name := range sortedKeys(s.CounterVecs) {
		f := family(name, "counter")
		for _, sr := range s.CounterVecs[name] {
			f.lines = append(f.lines, f.name+promLabels(sr.Labels, "", "")+
				" "+strconv.FormatInt(sr.Value, 10))
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		f := family(name, "gauge")
		f.lines = append(f.lines, f.name+" "+promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.GaugeVecs) {
		f := family(name, "gauge")
		for _, sr := range s.GaugeVecs[name] {
			f.lines = append(f.lines, f.name+promLabels(sr.Labels, "", "")+
				" "+promFloat(sr.Value))
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		family(name, "histogram").writeHistSeries(nil, s.Histograms[name])
	}
	for _, name := range sortedKeys(s.HistogramVecs) {
		f := family(name, "histogram")
		for _, sr := range s.HistogramVecs[name] {
			f.writeHistSeries(sr.Labels, sr.Hist)
		}
	}

	bw := bufio.NewWriter(w)
	for _, n := range sortedKeys(fams) {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, line := range f.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ValidateExposition reads a Prometheus text page and returns an
// error on the first malformed line — the checker the CI scrape drill
// (and the chaos scrape tests) run against a live /metrics endpoint.
// It verifies line shape (comments, `name{labels} value`, `name
// value`), name/label charsets, numeric values, and that every sample
// belongs to a `# TYPE`-declared family.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) >= 4 && parts[1] == "TYPE" {
				if promName(parts[2]) != parts[2] {
					return fmt.Errorf("line %d: bad family name %q", lineNo, parts[2])
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: bad family type %q", lineNo, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if name == "" || promName(name) != name {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(name, suffix)]; ok && t == "histogram" {
				base = strings.TrimSuffix(name, suffix)
				break
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("line %d: unterminated label block", lineNo)
			}
			for _, pair := range splitLabelPairs(rest[1:end]) {
				eq := strings.Index(pair, "=")
				if eq <= 0 {
					return fmt.Errorf("line %d: bad label pair %q", lineNo, pair)
				}
				k, v := pair[:eq], pair[eq+1:]
				if promLabelName(k) != k {
					return fmt.Errorf("line %d: bad label name %q", lineNo, k)
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return fmt.Errorf("line %d: unquoted label value %q", lineNo, v)
				}
			}
			rest = rest[end+1:]
		}
		val := strings.TrimSpace(rest)
		if val == "" {
			return fmt.Errorf("line %d: missing sample value", lineNo)
		}
		if _, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, val)
		}
	}
	return sc.Err()
}

// splitLabelPairs splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
