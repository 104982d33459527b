package obs

import "fmt"

// SchemaVersion is the artifact schema this package writes. It is stamped
// into every run directory — as `schema_version` in manifest.json and as a
// `v` field on every events.jsonl and results.jsonl line — so readers
// (internal/report) can refuse artifacts they do not understand instead of
// silently misparsing them.
//
// The version is a single major number: any change that would break an
// existing reader (renamed keys, changed units, removed kinds) bumps it.
// Purely additive changes (new event kinds, new optional keys) do not.
//
// Every artifact but events.jsonl (written through log/slog) has one Go
// type in this package that the writer marshals and internal/report
// decodes, named first in its entry below, so the two cannot drift apart.
//
// Schema v1 (current):
//
//	manifest.json   RunInfo: schema_version, tool, flags{...}, commit,
//	                go_version, goos/goarch/gomaxprocs, start
//	events.jsonl    one JSON object per line: time (RFC 3339), msg (kind),
//	                v, then per-kind attributes; kinds run_start, progress,
//	                run_end plus CLI-specific kinds. Earlier v1 writers also
//	                emitted span_end (path, duration_ms, counters) per span;
//	                the kind was dropped within v1 because it repeated
//	                trace.json, and readers ignore it in old run dirs
//	trace.json      SpanRecord: name, start, duration_ms, counters{...},
//	                children[...] (or null for traceless runs)
//	metrics.json    Default metrics-registry snapshot (flat JSON object;
//	                histograms render as HistogramSnapshot)
//	results.jsonl   one ResultRow per line (experiments only)
//	histograms.json HistogramsArtifact: named latency HistogramSnapshots
//	                under a schema_version stamp (loadgen and advisord
//	                only; optional — added additively within v1, so
//	                readers must load run directories that lack it)
//	traces.jsonl    one TraceRecord per line: v, trace_id (32 hex),
//	                span_id (16 hex), parent_span_id, kind
//	                ("client"/"server"), request_id, span (a SpanRecord,
//	                trace.json's shape); written only for tail-sampled
//	                requests (optional — additive within v1)
//
// Version 0 is the pre-versioning schema (identical minus the version
// stamps); readers accept it as legacy.
const SchemaVersion = 1

// CheckSchemaVersion validates an artifact schema version read back from a
// run directory. Version 0 (legacy, pre-versioning artifacts) and every
// version up to SchemaVersion are accepted; anything newer means the
// artifacts were written by a newer build than the reader, which must
// refuse rather than guess.
func CheckSchemaVersion(v int) error {
	if v < 0 || v > SchemaVersion {
		return fmt.Errorf("obs: artifact schema v%d not understood by this build (reads up to v%d); rebuild the reader from the commit that wrote the artifacts, or newer", v, SchemaVersion)
	}
	return nil
}

// ResultRow is one line of results.jsonl: a single table row of one
// experiment, self-describing enough to rebuild the rendered table without
// re-running the Monte Carlo sweep. cmd/experiments writes it; the read
// side (internal/report) decodes into the same struct, so writer and reader
// cannot drift apart.
type ResultRow struct {
	// V is the artifact schema version (SchemaVersion at write time; 0 on
	// legacy lines).
	V int `json:"v"`
	// Experiment is the experiment id ("fig3", "tan", ...).
	Experiment string `json:"experiment"`
	// Table is the table title the row belongs to.
	Table string `json:"table"`
	// Columns preserves the table's header order (cells alone cannot: JSON
	// objects have no order). Empty on legacy lines; readers then fall back
	// to sorted cell keys.
	Columns []string `json:"columns,omitempty"`
	// Cells maps column name to the rendered cell.
	Cells map[string]string `json:"cells"`
}
