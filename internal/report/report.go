// Package report is the read side of the observability stack: it parses the
// run directories that internal/obs writes (manifest.json, results.jsonl,
// events.jsonl, trace.json) back into answers. Three consumers build on it,
// surfaced as cmd/report's subcommands:
//
//   - Tables regenerates the EXPERIMENTS.md-style tables from results.jsonl
//     alone, so figure data persists independently of the rendered output;
//   - Diff is an "accudiff": it aligns two runs' results by experiment,
//     table, and key columns and gates on accuracy drift — the same spirit
//     as cmd/benchdiff, but for the paper's accuracy-preservation claims
//     rather than ns/op;
//   - Profile aggregates the span tree into per-path total/self time, a
//     critical path, counter rollups, and a worker-utilization summary.
//
// Readers gate on the artifact schema version (obs.SchemaVersion): a run
// directory written by a newer schema is refused with a clear error rather
// than misread. Version 0 (pre-versioning artifacts) is accepted as legacy.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hamlet/internal/obs"
)

// Run is one parsed run directory. Results, Events, and Trace are optional
// artifacts (nil/empty when the producing CLI did not write them); Manifest
// is mandatory — a directory without manifest.json is not a run directory.
type Run struct {
	// Dir is the directory the run was loaded from.
	Dir string
	// Manifest is the parsed manifest.json.
	Manifest obs.RunInfo
	// Results holds results.jsonl in line order (experiments runs only).
	Results []obs.ResultRow
	// Events holds events.jsonl in line order.
	Events []Event
	// Trace is the span tree from trace.json (nil when absent or null).
	Trace *TraceSpan
	// Histograms holds histograms.json's named latency snapshots (loadgen
	// runs only; nil when absent).
	Histograms map[string]obs.HistogramSnapshot
	// Traces holds traces.jsonl in line order (nil when the run kept no
	// sampled traces — the file is only created on the first kept trace).
	Traces []TraceLine
	// Metrics holds metrics.json's scalar values — counters and gauges by
	// name. Histogram entries are skipped (Histograms carries the latency
	// series). Nil when the artifact is absent.
	Metrics map[string]float64
}

// Event is one parsed events.jsonl line: the envelope fields plus the
// per-kind attributes.
type Event struct {
	// Time is the event timestamp.
	Time time.Time
	// Msg is the event kind ("run_start", "http_request", ...).
	Msg string
	// V is the line's schema stamp (0 on legacy lines).
	V int
	// Attrs holds the remaining per-kind keys as decoded JSON values.
	Attrs map[string]any
}

// TraceSpan is one node of the persisted span tree (trace.json). It mirrors
// the obs.Span JSON shape.
type TraceSpan struct {
	Name       string           `json:"name"`
	Start      time.Time        `json:"start"`
	DurationMS float64          `json:"duration_ms"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*TraceSpan     `json:"children,omitempty"`
}

// Load parses the run directory at dir. The manifest must exist and carry a
// schema version this build understands; results.jsonl, events.jsonl, and
// trace.json are parsed when present. Errors preserve fs.ErrNotExist so
// callers can distinguish "not a run directory" from a parse failure.
func Load(dir string) (*Run, error) {
	r := &Run{Dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, obs.ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(data, &r.Manifest); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", filepath.Join(dir, obs.ManifestFile), err)
	}
	if err := obs.CheckSchemaVersion(r.Manifest.SchemaVersion); err != nil {
		return nil, fmt.Errorf("report: %s: %w", dir, err)
	}
	if r.Results, err = loadResults(filepath.Join(dir, obs.ResultsFile)); err != nil {
		return nil, err
	}
	if r.Events, err = loadEvents(filepath.Join(dir, obs.EventsFile)); err != nil {
		return nil, err
	}
	if r.Trace, err = loadTrace(filepath.Join(dir, obs.TraceFile)); err != nil {
		return nil, err
	}
	if r.Histograms, err = loadHistograms(filepath.Join(dir, obs.HistogramsFile)); err != nil {
		return nil, err
	}
	if r.Traces, err = loadTraceLines(filepath.Join(dir, obs.TracesFile)); err != nil {
		return nil, err
	}
	if r.Metrics, err = loadMetrics(filepath.Join(dir, obs.MetricsFile)); err != nil {
		return nil, err
	}
	return r, nil
}

// loadMetrics parses metrics.json's scalar entries (nil with a nil error
// when absent). Non-numeric values — histogram snapshots — are skipped.
func loadMetrics(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	out := make(map[string]float64)
	for name, v := range raw {
		if f, ok := v.(float64); ok {
			out[name] = f
		}
	}
	return out, nil
}

// loadTraceLines parses traces.jsonl (nil with a nil error when absent —
// the artifact is additive, and even a traced run writes it lazily).
func loadTraceLines(path string) ([]TraceLine, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	var lines []TraceLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var tl TraceLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		if err := obs.CheckSchemaVersion(tl.V); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		lines = append(lines, tl)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: scan %s: %w", path, err)
	}
	return lines, nil
}

// loadHistograms parses histograms.json (nil with a nil error when absent —
// the artifact is additive; only loadgen runs write it).
func loadHistograms(path string) (map[string]obs.HistogramSnapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var art obs.HistogramsArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if err := obs.CheckSchemaVersion(art.SchemaVersion); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return art.Histograms, nil
}

// loadResults parses results.jsonl ([] with a nil error when absent).
func loadResults(path string) ([]obs.ResultRow, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	var rows []obs.ResultRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row obs.ResultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		if err := obs.CheckSchemaVersion(row.V); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: scan %s: %w", path, err)
	}
	return rows, nil
}

// loadEvents parses events.jsonl ([] with a nil error when absent).
func loadEvents(path string) ([]Event, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		ev := Event{Attrs: raw}
		if ts, ok := raw["time"].(string); ok {
			if t, err := time.Parse(time.RFC3339Nano, ts); err == nil {
				ev.Time = t
			}
			delete(raw, "time")
		}
		if msg, ok := raw["msg"].(string); ok {
			ev.Msg = msg
			delete(raw, "msg")
		}
		if v, ok := raw["v"].(float64); ok {
			ev.V = int(v)
			delete(raw, "v")
		}
		if err := obs.CheckSchemaVersion(ev.V); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: scan %s: %w", path, err)
	}
	return events, nil
}

// loadTrace parses trace.json (nil with a nil error when absent or null —
// traceless runs persist a literal null).
func loadTrace(path string) (*TraceSpan, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var root *TraceSpan
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	return root, nil
}
