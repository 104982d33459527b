package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders metrics in the Prometheus text exposition format
// (version 0.0.4) — the lingua franca of scrape-based monitoring — without
// taking a client-library dependency. The write side stays tiny because the
// repo's metric model is tiny: counters, gauges, and cumulative
// HistogramSnapshots. Registry.WriteProm renders the metrics registry on
// every /metrics (the -http flag's and advisord's); internal/server adds its
// request series on top, and internal/report's `watch` parses the output
// back and differences consecutive scrapes.

// PromContentType is the Content-Type of a text exposition response.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes s into a legal Prometheus metric name: every character
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed with
// '_'. Registry names like "relational.joins" become "relational_joins".
func PromName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value: backslash, double quote, and newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// PromWriter streams exposition lines to w. Methods are fire-and-forget; the
// first write error sticks and every later call no-ops, so a scrape whose
// client went away stops writing. Not safe for concurrent use.
type PromWriter struct {
	w     io.Writer
	typed map[string]bool
	err   error
}

// NewPromWriter returns a writer streaming to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

// write emits one raw line.
func (p *PromWriter) write(line string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, line)
}

// Type writes the # HELP / # TYPE header for name once; later calls for the
// same name no-op, so series emitters can declare their type defensively.
func (p *PromWriter) Type(name, typ, help string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	if help != "" {
		p.write("# HELP " + name + " " + help + "\n")
	}
	p.write("# TYPE " + name + " " + typ + "\n")
}

// series renders name{labels} from pairwise labels (k1, v1, k2, v2, ...).
func series(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(promEscape(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a sample value ("+Inf" for the unbounded bucket).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Value emits one sample line with a float value. Labels are pairwise
// (key, value, key, value, ...).
func (p *PromWriter) Value(name string, labels []string, v float64) {
	p.write(series(name, labels) + " " + promFloat(v) + "\n")
}

// Int emits one sample line with an integer value.
func (p *PromWriter) Int(name string, labels []string, v int64) {
	p.write(series(name, labels) + " " + strconv.FormatInt(v, 10) + "\n")
}

// Histogram emits a Prometheus histogram from a cumulative snapshot: one
// _bucket line per occupied bucket (le = the bucket's inclusive upper bound,
// matching le's ≤ semantics, scaled), the mandatory le="+Inf" line, and
// _sum/_count. scale converts observed units to the exposed unit.
func (p *PromWriter) Histogram(name string, labels []string, cum HistogramSnapshot, scale float64) {
	idxs := make([]int, 0, len(cum.Buckets))
	for i := range cum.Buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var cumulative int64
	for _, i := range idxs {
		cumulative += cum.Buckets[i]
		le := float64(bucketUpper(i, uint(cum.Precision))) * scale
		p.Value(name+"_bucket", append(labels, "le", promFloat(le)), float64(cumulative))
	}
	p.write(series(name+"_bucket", append(labels, "le", "+Inf")) + " " + strconv.FormatInt(cum.Count, 10) + "\n")
	p.Value(name+"_sum", labels, float64(cum.Sum)*scale)
	p.Int(name+"_count", labels, cum.Count)
}

// WriteProm renders every registered metric under "hamlet_" + PromName:
// counters as one sample each, histograms in the histogram
// format in their observed units (registry histograms count rows and
// evaluations, not time). Names are sorted so successive scrapes line up.
// Values are read after the registry lock is released, so a slow scraper
// never blocks metric creation.
func (r *Registry) WriteProm(p *PromWriter) {
	r.mu.Lock()
	counters, hists := sortedMetrics(r.counters), sortedMetrics(r.histograms)
	r.mu.Unlock()
	for _, c := range counters {
		name := "hamlet_" + PromName(c.name)
		p.Type(name, "counter", "")
		p.Int(name, nil, c.m.Value())
	}
	for _, h := range hists {
		name := "hamlet_" + PromName(h.name)
		p.Type(name, "histogram", "")
		p.Histogram(name, nil, h.m.Snapshot(), 1)
	}
}

// namedMetric pairs a registry metric with its name.
type namedMetric[M any] struct {
	name string
	m    M
}

// sortedMetrics copies one registry map into a name-sorted slice. Caller
// holds the registry lock.
func sortedMetrics[M any](byName map[string]M) []namedMetric[M] {
	out := make([]namedMetric[M], 0, len(byName))
	for name, m := range byName {
		out = append(out, namedMetric[M]{name, m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
