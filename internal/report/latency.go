package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"hamlet/internal/obs"
)

// This file is the read side of the latency telemetry pipeline: it renders
// the histograms.json snapshots cmd/loadgen persists into quantile tables
// and gates a quantile (p99 by default) between two runs — the "latdiff"
// sibling of the accudiff in diff.go, sharing its exit-code contract
// through cmd/report.

// LatencyNames returns the run's histogram names sorted, run-level series
// before their per-dataset sub-series (plain lexical order does this:
// "request_latency_ns" < "request_latency_ns.Walmart").
func (r *Run) LatencyNames() []string {
	names := make([]string, 0, len(r.Histograms))
	for name := range r.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteLatency renders LatencyRows as a table: count, exact min/max and
// mean, and the estimated quantiles, with the bucket scheme's error bound
// stated once per distinct precision. Errors when the run carries no
// histograms (only loadgen and advisord runs write them).
func (r *Run) WriteLatency(w io.Writer) error {
	rows, err := r.LatencyRows()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "histogram\tcount\tmin\tp50\tp90\tp99\tp99.9\tmax\tmean")
	precisions := make(map[int]bool)
	for _, row := range rows {
		precisions[row.Precision] = true
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", row.Histogram, row.Count,
			ns(row.MinNS), ns(row.P50NS), ns(row.P90NS), ns(row.P99NS), ns(row.P999NS), ns(row.MaxNS), ns(row.MeanNS))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	ps := make([]int, 0, len(precisions))
	for p := range precisions {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		e := obs.HistogramSnapshot{Precision: p}.MaxQuantileError()
		if _, err := fmt.Fprintf(w, "precision %d: quantile error ≤ %.2f%% (quantiles never undershoot; min/max/mean/count exact)\n", p, 100*e); err != nil {
			return err
		}
	}
	return nil
}

// ns renders a nanosecond value as a duration string.
func ns(v int64) time.Duration { return time.Duration(v) }

// LatencyRow is one histogram's quantile summary: the row WriteLatency
// renders as duration strings, and the CSV and JSON forms carry as raw
// nanoseconds so downstream tooling needs no duration parser.
type LatencyRow struct {
	Histogram string `json:"histogram"`
	Count     int64  `json:"count"`
	MinNS     int64  `json:"min_ns"`
	P50NS     int64  `json:"p50_ns"`
	P90NS     int64  `json:"p90_ns"`
	P99NS     int64  `json:"p99_ns"`
	P999NS    int64  `json:"p999_ns"`
	MaxNS     int64  `json:"max_ns"`
	MeanNS    int64  `json:"mean_ns"`
	Precision int    `json:"precision"`
}

// LatencyRows flattens the run's histograms into rows sorted by name.
// Errors when the run carries none.
func (r *Run) LatencyRows() ([]LatencyRow, error) {
	names := r.LatencyNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("report: %s has no %s to render (only loadgen runs write latency histograms)", r.Dir, obs.HistogramsFile)
	}
	rows := make([]LatencyRow, len(names))
	for i, name := range names {
		h := r.Histograms[name]
		rows[i] = LatencyRow{
			Histogram: name,
			Count:     h.Count,
			MinNS:     h.Min,
			P50NS:     h.Quantile(0.50),
			P90NS:     h.Quantile(0.90),
			P99NS:     h.Quantile(0.99),
			P999NS:    h.Quantile(0.999),
			MaxNS:     h.Max,
			MeanNS:    int64(h.Mean()),
			Precision: h.Precision,
		}
	}
	return rows, nil
}

// WriteLatencyCSV renders the latency rows as one CSV record per histogram.
func (r *Run) WriteLatencyCSV(w io.Writer) error {
	rows, err := r.LatencyRows()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"histogram", "count", "min_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns", "mean_ns", "precision"}); err != nil {
		return err
	}
	for _, row := range rows {
		rec := []string{
			row.Histogram,
			strconv.FormatInt(row.Count, 10),
			strconv.FormatInt(row.MinNS, 10),
			strconv.FormatInt(row.P50NS, 10),
			strconv.FormatInt(row.P90NS, 10),
			strconv.FormatInt(row.P99NS, 10),
			strconv.FormatInt(row.P999NS, 10),
			strconv.FormatInt(row.MaxNS, 10),
			strconv.FormatInt(row.MeanNS, 10),
			strconv.Itoa(row.Precision),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLatencyJSON renders the latency rows as an indented JSON array.
func (r *Run) WriteLatencyJSON(w io.Writer) error {
	rows, err := r.LatencyRows()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// LatencyDiffOptions configures the latency gate.
type LatencyDiffOptions struct {
	// Quantile is the gated quantile, in (0, 1] (0.99 = p99).
	Quantile float64
	// Tol is the relative regression tolerance on the gated quantile: the
	// gate trips when new > base·(1 + Tol + combined bucket error). Folding
	// both snapshots' quantile error bounds into the threshold means
	// quantization alone can never trip it.
	Tol float64
}

// DefaultLatencyDiffOptions gates p99 at 10% relative regression.
var DefaultLatencyDiffOptions = LatencyDiffOptions{Quantile: 0.99, Tol: 0.10}

// LatencyDelta is one aligned histogram's comparison.
type LatencyDelta struct {
	// Name is the histogram name present in both runs.
	Name string
	// Base and New are the gated quantile's estimates, in nanoseconds.
	Base, New int64
	// Rel is New/Base - 1 (0 when Base is 0 and New is 0; +Inf-free: a
	// zero base with a nonzero new reports Rel as +1 per nanosecond — see
	// relDelta).
	Rel float64
	// Threshold is the effective relative tolerance applied to this pair:
	// Tol plus both snapshots' bucket error bounds.
	Threshold float64
	// Regressed reports Rel > Threshold.
	Regressed bool
}

// LatencyDiffReport is the outcome of comparing two runs' histograms.
type LatencyDiffReport struct {
	// Quantile echoes the gated quantile.
	Quantile float64
	// Deltas holds one entry per aligned histogram name, sorted by name.
	Deltas []LatencyDelta
	// OnlyBase and OnlyNew list names present on one side only.
	OnlyBase, OnlyNew []string
}

// Regressions counts the deltas that tripped the gate.
func (r *LatencyDiffReport) Regressions() int {
	n := 0
	for _, d := range r.Deltas {
		if d.Regressed {
			n++
		}
	}
	return n
}

// LatencyDiff aligns the two runs' histograms by name and compares the
// gated quantile on each. Histograms observed at different precisions still
// compare — each side's own error bound is folded into the threshold.
func LatencyDiff(base, next *Run, opt LatencyDiffOptions) *LatencyDiffReport {
	rep := &LatencyDiffReport{Quantile: opt.Quantile}
	for _, name := range base.LatencyNames() {
		b := base.Histograms[name]
		n, ok := next.Histograms[name]
		if !ok {
			rep.OnlyBase = append(rep.OnlyBase, name)
			continue
		}
		d := LatencyDelta{
			Name:      name,
			Base:      b.Quantile(opt.Quantile),
			New:       n.Quantile(opt.Quantile),
			Threshold: opt.Tol + b.MaxQuantileError() + n.MaxQuantileError(),
		}
		d.Rel = relDelta(d.Base, d.New)
		d.Regressed = d.Rel > d.Threshold
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, name := range next.LatencyNames() {
		if _, ok := base.Histograms[name]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, name)
		}
	}
	return rep
}

// relDelta is new/base - 1 with a bounded answer for a zero base: equal
// zeros are no change, and any regression from zero counts its nanoseconds
// (so it always exceeds a sane tolerance without producing +Inf).
func relDelta(base, next int64) float64 {
	if base == 0 {
		if next == 0 {
			return 0
		}
		return float64(next)
	}
	return float64(next)/float64(base) - 1
}
