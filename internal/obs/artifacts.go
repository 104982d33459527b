package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Artifact file names inside a run directory (the CLIs' -out flag).
const (
	// ManifestFile is the run manifest (RunInfo), written at open.
	ManifestFile = "manifest.json"
	// EventsFile is the structured JSONL event stream, appended while the
	// run executes.
	EventsFile = "events.jsonl"
	// MetricsFile is the final Default-registry snapshot, written at close.
	MetricsFile = "metrics.json"
	// TraceFile is the full span tree as JSON, written at close.
	TraceFile = "trace.json"
	// ResultsFile is the per-figure result stream (experiments only),
	// appended as each experiment completes.
	ResultsFile = "results.jsonl"
	// HistogramsFile holds named latency histogram snapshots (loadgen),
	// written at close. Optional: readers must load run dirs without it.
	HistogramsFile = "histograms.json"
	// LatencyHist names the run-level request-latency histogram in
	// histograms.json, written by loadgen and advisord and read by `report
	// latency`/`slo`. Per-dataset or per-endpoint series append ".<name>".
	LatencyHist = "request_latency_ns"
	// TracesFile is the sampled distributed-trace stream (one TraceRecord
	// per line), appended as the tail sampler keeps traces. Optional, like
	// every post-v1 artifact.
	TracesFile = "traces.jsonl"
)

// HistogramsArtifact is the histograms.json payload: named histogram
// snapshots under a schema stamp. The write side is WriteHistograms; the
// read side is internal/report, which gates on the version like every other
// artifact.
type HistogramsArtifact struct {
	SchemaVersion int                          `json:"schema_version"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// RunDir persists one run's artifacts to a directory: the manifest at open,
// a live event stream while running, and the metrics snapshot plus span
// trace at close. A nil *RunDir no-ops everywhere, so CLIs call through it
// unconditionally and the -out-unset path stays allocation-free.
type RunDir struct {
	dir     string
	info    *RunInfo
	events  *EventLog
	eventsF *os.File
	results *os.File
	traces  *TraceLog
}

// OpenRunDir creates dir (and parents), writes manifest.json from info, and
// opens events.jsonl with a run_start event already emitted. An empty dir
// returns (nil, nil) — the disabled layer.
func OpenRunDir(dir string, info *RunInfo) (*RunDir, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: create run dir: %w", err)
	}
	// Every written manifest carries the current schema version, even when
	// the caller built the RunInfo by hand rather than via CollectRunInfo.
	info.SchemaVersion = SchemaVersion
	if err := writeJSON(filepath.Join(dir, ManifestFile), info); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, fmt.Errorf("obs: create %s: %w", EventsFile, err)
	}
	r := &RunDir{dir: dir, info: info, events: NewEventLog(f), eventsF: f}
	r.traces = &TraceLog{path: filepath.Join(dir, TracesFile)}
	r.events.RunStart(info)
	return r, nil
}

// Dir returns the run directory path ("" on nil).
func (r *RunDir) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Events returns the run's event log (nil on nil, which itself no-ops).
func (r *RunDir) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Traces returns the run's sampled-trace log (nil on nil, which itself
// no-ops). The traces.jsonl file is only created once a trace is kept.
func (r *RunDir) Traces() *TraceLog {
	if r == nil {
		return nil
	}
	return r.traces
}

// AppendResult marshals v onto one line of results.jsonl, creating the file
// on first use. Experiments call this once per figure table row batch so
// figure data survives independently of the rendered tables.
func (r *RunDir) AppendResult(v any) error {
	if r == nil {
		return nil
	}
	if r.results == nil {
		f, err := os.Create(filepath.Join(r.dir, ResultsFile))
		if err != nil {
			return fmt.Errorf("obs: create %s: %w", ResultsFile, err)
		}
		r.results = f
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: marshal result: %w", err)
	}
	_, err = r.results.Write(append(data, '\n'))
	return err
}

// WriteHistograms persists named histogram snapshots as histograms.json.
// The artifact is additive to schema v1: run directories without it load
// exactly as before, and readers that predate it ignore the file. A nil
// *RunDir or an empty map no-ops.
func (r *RunDir) WriteHistograms(hists map[string]HistogramSnapshot) error {
	if r == nil || len(hists) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(r.dir, HistogramsFile), HistogramsArtifact{
		SchemaVersion: SchemaVersion,
		Histograms:    hists,
	})
}

// Close finalizes the run: emits a run_end event carrying runErr, writes
// metrics.json from the Default registry and trace.json from root (which
// may be nil), and closes the streams. Safe on nil.
func (r *RunDir) Close(root *Span, runErr error) error {
	if r == nil {
		return nil
	}
	r.events.RunEnd(runErr, time.Since(r.info.Start))
	var errs []error
	if err := writeJSON(filepath.Join(r.dir, MetricsFile), Default.Snapshot()); err != nil {
		errs = append(errs, err)
	}
	if err := writeJSON(filepath.Join(r.dir, TraceFile), root); err != nil {
		errs = append(errs, err)
	}
	if err := r.eventsF.Close(); err != nil {
		errs = append(errs, err)
	}
	if r.results != nil {
		if err := r.results.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := r.traces.close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
