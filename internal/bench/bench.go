// Package bench parses and compares benchmark snapshots for perf-regression
// tracking (cmd/benchdiff). It understands two input shapes:
//
//   - the scripts/bench.sh format: a JSON object
//     {"meta": {...}, "benchmarks": [...]} where meta pins commit, date, Go
//     version, benchtime, pattern, and sample count;
//   - raw `go test -bench` text, so a fresh local run can be compared
//     without snapshotting first.
//
// Comparison aligns benchmarks by name, averages repeated samples (go test
// -count N yields N lines per benchmark), and attaches a Welch t-test
// p-value from internal/stats when both sides carry enough samples.
package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"

	"hamlet/internal/stats"
)

// Meta describes how a snapshot was produced (bench.sh writes it; raw-text
// inputs leave it zero).
type Meta struct {
	// Commit is the git SHA the suite ran at.
	Commit string `json:"commit,omitempty"`
	// Date is the snapshot date (YYYY-MM-DD).
	Date string `json:"date,omitempty"`
	// GoVersion is the toolchain used.
	GoVersion string `json:"go_version,omitempty"`
	// Benchtime is the -benchtime value.
	Benchtime string `json:"benchtime,omitempty"`
	// Pattern is the -bench pattern.
	Pattern string `json:"pattern,omitempty"`
	// Count is the -count value (samples per benchmark).
	Count int `json:"count,omitempty"`
	// NumCPU is the number of CPUs the machine offered the suite.
	NumCPU int `json:"num_cpu,omitempty"`
	// GOMAXPROCS is the Go scheduler's parallelism during the run.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// CPU is the processor model `go test -bench` reported.
	CPU string `json:"cpu,omitempty"`
}

// Sample is one benchmark result line. BytesPerOp and AllocsPerOp are
// pointers because -benchmem may be off (bench.sh emits null).
type Sample struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// Snapshot is one parsed benchmark suite run: optional meta plus samples
// (repeated names mean repeated -count samples).
type Snapshot struct {
	Meta       Meta     `json:"meta"`
	Benchmarks []Sample `json:"benchmarks"`
}

// ParseFile reads and parses one snapshot file in any supported format.
func ParseFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse detects the input format by its first non-space byte: '{' is the
// meta-wrapped format, anything else raw `go test -bench` output.
func Parse(data []byte) (*Snapshot, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(trimmed) == 0:
		return nil, fmt.Errorf("bench: empty input")
	case trimmed[0] == '{':
		var s Snapshot
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return nil, fmt.Errorf("bench: parse snapshot: %w", err)
		}
		return &s, nil
	default:
		samples, err := parseBenchText(data)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Benchmarks: samples}, nil
	}
}

// benchLine matches one `go test -bench` result line:
// BenchmarkName-8   123   4567 ns/op [  89 B/op   1 allocs/op ]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchText extracts benchmark lines from raw `go test -bench` output,
// ignoring goos/pkg headers, PASS/ok trailers, and anything else.
func parseBenchText(data []byte) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		s := Sample{Name: m[1], Iterations: iters}
		fields := bytes.Fields([]byte(m[3]))
		for i := 1; i < len(fields); i++ {
			v, err := strconv.ParseFloat(string(fields[i-1]), 64)
			if err != nil {
				continue
			}
			switch string(fields[i]) {
			case "ns/op":
				s.NsPerOp = v
			case "B/op":
				b := v
				s.BytesPerOp = &b
			case "allocs/op":
				a := v
				s.AllocsPerOp = &a
			}
		}
		if s.NsPerOp == 0 {
			continue // not a timing line (e.g. a custom metric only)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: scan text: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no benchmark lines found in text input")
	}
	return out, nil
}

// Delta is one aligned benchmark's old-vs-new comparison. Means are over
// the available samples; P is the Welch two-sided p-value for the ns/op
// means (NaN when either side has fewer than two samples — the caller then
// gates on the threshold alone). The memory metrics (B/op, allocs/op) carry
// their own deltas and p-values so callers can gate on peak-allocation
// regressions independently of time: an extra copy of a large table shows
// up in B/op long before ns/op moves. Memory fields are NaN when either
// snapshot lacks -benchmem data.
type Delta struct {
	Name      string
	OldNs     float64 // mean ns/op, old
	NewNs     float64 // mean ns/op, new
	Ratio     float64 // NewNs / OldNs
	Delta     float64 // Ratio - 1 (positive = slower)
	P         float64
	NOld      int // samples on the old side
	NNew      int
	OldAllocs float64 // mean allocs/op (NaN when not recorded)
	NewAllocs float64
	// AllocsDelta is the allocs/op ratio - 1; 0 -> n regressions are +Inf
	// (a previously allocation-free path now allocates).
	AllocsDelta float64
	// PAllocs is the Welch p-value over the allocs/op samples.
	PAllocs float64
	// OldBytes and NewBytes are the mean B/op (NaN when not recorded).
	OldBytes float64
	NewBytes float64
	// BytesDelta is the B/op ratio - 1, with the same +Inf convention.
	BytesDelta float64
	// PBytes is the Welch p-value over the B/op samples.
	PBytes float64
}

// Report is the aligned comparison of two snapshots.
type Report struct {
	// Deltas holds one entry per benchmark present in both snapshots,
	// sorted by name.
	Deltas []Delta
	// OnlyOld and OnlyNew name benchmarks present on one side only.
	OnlyOld, OnlyNew []string
	// Geomean is the geometric mean of the per-benchmark ns/op ratios
	// (1.0 = unchanged, >1 = slower overall); NaN with no aligned pairs.
	Geomean float64
}

// group collects the per-metric sample series of one benchmark name.
type group struct {
	ns     []float64
	bytes  []float64
	allocs []float64
}

func groupByName(samples []Sample) map[string]*group {
	out := make(map[string]*group)
	for _, s := range samples {
		g := out[s.Name]
		if g == nil {
			g = &group{}
			out[s.Name] = g
		}
		g.ns = append(g.ns, s.NsPerOp)
		if s.BytesPerOp != nil {
			g.bytes = append(g.bytes, *s.BytesPerOp)
		}
		if s.AllocsPerOp != nil {
			g.allocs = append(g.allocs, *s.AllocsPerOp)
		}
	}
	return out
}

// memDelta returns ratio-1 for a memory metric's old/new means, with the
// zero-baseline convention: 0 -> 0 is unchanged, 0 -> anything positive is
// +Inf (a previously allocation-free path now allocates — always a gate-
// worthy regression), and NaN propagates when either side is unrecorded.
func memDelta(oldMean, newMean float64) float64 {
	switch {
	case math.IsNaN(oldMean) || math.IsNaN(newMean):
		return math.NaN()
	case oldMean == 0 && newMean == 0:
		return 0
	case oldMean == 0:
		return math.Inf(1)
	}
	return newMean/oldMean - 1
}

// meanOrNaN returns the mean of xs, or NaN when empty.
func meanOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

// Diff aligns two snapshots by benchmark name and compares them.
func Diff(before, after *Snapshot) *Report {
	og, ng := groupByName(before.Benchmarks), groupByName(after.Benchmarks)
	rep := &Report{}
	var logSum float64
	for name, o := range og {
		n, ok := ng[name]
		if !ok {
			rep.OnlyOld = append(rep.OnlyOld, name)
			continue
		}
		d := Delta{
			Name:      name,
			OldNs:     stats.Mean(o.ns),
			NewNs:     stats.Mean(n.ns),
			NOld:      len(o.ns),
			NNew:      len(n.ns),
			OldAllocs: meanOrNaN(o.allocs),
			NewAllocs: meanOrNaN(n.allocs),
			OldBytes:  meanOrNaN(o.bytes),
			NewBytes:  meanOrNaN(n.bytes),
		}
		d.Ratio = d.NewNs / d.OldNs
		d.Delta = d.Ratio - 1
		_, _, d.P = stats.WelchTTest(o.ns, n.ns)
		d.AllocsDelta = memDelta(d.OldAllocs, d.NewAllocs)
		_, _, d.PAllocs = stats.WelchTTest(o.allocs, n.allocs)
		d.BytesDelta = memDelta(d.OldBytes, d.NewBytes)
		_, _, d.PBytes = stats.WelchTTest(o.bytes, n.bytes)
		rep.Deltas = append(rep.Deltas, d)
		logSum += math.Log(d.Ratio)
	}
	for name := range ng {
		if _, ok := og[name]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, name)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Name < rep.Deltas[j].Name })
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	if len(rep.Deltas) > 0 {
		rep.Geomean = math.Exp(logSum / float64(len(rep.Deltas)))
	} else {
		rep.Geomean = math.NaN()
	}
	return rep
}

// Significant reports whether the delta's ns/op difference is statistically
// distinguishable at level alpha. With too few samples for a test (P is
// NaN), it returns true: a lone sample can't be exonerated by statistics,
// so the threshold alone decides.
func (d Delta) Significant(alpha float64) bool {
	if math.IsNaN(d.P) {
		return true
	}
	return d.P < alpha
}

// Regressions returns the deltas that got slower by more than threshold
// (0.10 = 10%) and are Significant at alpha, sorted worst first.
func (r *Report) Regressions(threshold, alpha float64) []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Delta > threshold && d.Significant(alpha) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	return out
}

// significantAt applies the Significant NaN rule to an arbitrary p-value.
func significantAt(p, alpha float64) bool {
	if math.IsNaN(p) {
		return true
	}
	return p < alpha
}

// BytesRegressed reports whether the B/op metric regressed beyond threshold
// with significance alpha; false when either snapshot lacks B/op data.
func (d Delta) BytesRegressed(threshold, alpha float64) bool {
	return !math.IsNaN(d.BytesDelta) && d.BytesDelta > threshold && significantAt(d.PBytes, alpha)
}

// AllocsRegressed is BytesRegressed for the allocs/op metric.
func (d Delta) AllocsRegressed(threshold, alpha float64) bool {
	return !math.IsNaN(d.AllocsDelta) && d.AllocsDelta > threshold && significantAt(d.PAllocs, alpha)
}

// MemRegressions returns the deltas whose B/op or allocs/op grew by more
// than threshold (with the same significance machinery as Regressions),
// sorted worst first by their larger memory delta. Benchmarks where either
// snapshot lacks -benchmem data never qualify: the memory gate only fires
// when both sides actually measured memory.
func (r *Report) MemRegressions(threshold, alpha float64) []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.BytesRegressed(threshold, alpha) || d.AllocsRegressed(threshold, alpha) {
			out = append(out, d)
		}
	}
	worst := func(d Delta) float64 {
		w := math.Inf(-1)
		if !math.IsNaN(d.BytesDelta) && d.BytesDelta > w {
			w = d.BytesDelta
		}
		if !math.IsNaN(d.AllocsDelta) && d.AllocsDelta > w {
			w = d.AllocsDelta
		}
		return w
	}
	sort.Slice(out, func(i, j int) bool { return worst(out[i]) > worst(out[j]) })
	return out
}
