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
// Each artifact but events.jsonl (written through log/slog) decodes into
// the Go type its writer in internal/obs marshals — obs.RunInfo,
// obs.ResultRow, obs.SpanRecord, obs.HistogramsArtifact, obs.TraceRecord —
// so the two sides share one definition of every shape.
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
	Trace *obs.SpanRecord
	// Histograms holds histograms.json's named latency snapshots (loadgen
	// runs only; nil when absent).
	Histograms map[string]obs.HistogramSnapshot
	// Traces holds traces.jsonl in line order (nil when the run kept no
	// sampled traces — the file is only created on the first kept trace).
	Traces []obs.TraceRecord
	// Metrics holds metrics.json's scalar values — counters by name.
	// Histogram entries are skipped (Histograms carries the latency
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

// UnmarshalJSON splits one events.jsonl line into the envelope fields and
// the remaining attributes.
func (ev *Event) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*ev = Event{Attrs: raw}
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
	return nil
}

// Load parses the run directory at dir. The manifest must exist and carry a
// schema version this build understands; every other artifact is parsed
// when present. Errors preserve fs.ErrNotExist so callers can distinguish
// "not a run directory" from a parse failure.
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
	if r.Results, err = loadJSONL(filepath.Join(dir, obs.ResultsFile), func(row *obs.ResultRow) int { return row.V }); err != nil {
		return nil, err
	}
	if r.Events, err = loadJSONL(filepath.Join(dir, obs.EventsFile), func(ev *Event) int { return ev.V }); err != nil {
		return nil, err
	}
	// trace.json is a literal null for traceless runs, leaving Trace nil.
	if _, err := loadJSON(filepath.Join(dir, obs.TraceFile), &r.Trace); err != nil {
		return nil, err
	}
	if r.Histograms, err = loadHistograms(filepath.Join(dir, obs.HistogramsFile)); err != nil {
		return nil, err
	}
	if r.Traces, err = loadJSONL(filepath.Join(dir, obs.TracesFile), func(rec *obs.TraceRecord) int { return rec.V }); err != nil {
		return nil, err
	}
	if r.Metrics, err = loadMetrics(filepath.Join(dir, obs.MetricsFile)); err != nil {
		return nil, err
	}
	return r, nil
}

// loadJSON decodes the whole-file artifact at path into v. It returns
// false when there is nothing to use: the file is absent, which is not an
// error because every artifact but the manifest is optional, or it failed
// to read or parse, with the error.
func loadJSON(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("report: parse %s: %w", path, err)
	}
	return true, nil
}

// loadJSONL decodes the JSONL artifact at path one non-empty line at a
// time, refusing any line whose schema stamp (read by version) this build
// does not understand. An absent file yields nil with a nil error.
func loadJSONL[T any](path string, version func(*T) int) ([]T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		if err := obs.CheckSchemaVersion(version(&v)); err != nil {
			return nil, fmt.Errorf("report: %s line %d: %w", path, ln, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: scan %s: %w", path, err)
	}
	return out, nil
}

// loadMetrics parses metrics.json's scalar entries (nil when absent).
// Non-numeric values — histogram snapshots — are skipped.
func loadMetrics(path string) (map[string]float64, error) {
	var raw map[string]any
	if ok, err := loadJSON(path, &raw); !ok {
		return nil, err
	}
	out := make(map[string]float64)
	for name, v := range raw {
		if f, ok := v.(float64); ok {
			out[name] = f
		}
	}
	return out, nil
}

// loadHistograms parses histograms.json (nil when absent — the artifact is
// additive; only loadgen and advisord runs write it) and rejects any
// snapshot whose layout the quantile and SLO arithmetic cannot trust.
func loadHistograms(path string) (map[string]obs.HistogramSnapshot, error) {
	var art obs.HistogramsArtifact
	if ok, err := loadJSON(path, &art); !ok {
		return nil, err
	}
	if err := obs.CheckSchemaVersion(art.SchemaVersion); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	for name, h := range art.Histograms {
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("report: %s: histogram %q: %w", path, name, err)
		}
	}
	return art.Histograms, nil
}
