package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// TraceRecord is one line of traces.jsonl: one process's sampled span tree
// for one distributed request, keyed by the IDs that join it to the other
// halves of the same trace. The artifact is additive to schema v1 — run
// directories without it load exactly as before — and each line carries the
// version stamp like every other JSONL artifact. The writer (TraceLog) and
// the reader (internal/report) share this type.
type TraceRecord struct {
	// V is the artifact schema version (SchemaVersion).
	V int `json:"v"`
	// TraceID is the 128-bit request identity as 32 hex digits — the join
	// key for cross-process assembly.
	TraceID string `json:"trace_id"`
	// SpanID is this process's hop identity as 16 hex digits.
	SpanID string `json:"span_id"`
	// ParentSpanID is the caller's span ID when the trace was propagated in
	// (empty at the head of the trace).
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Kind is the hop's role: "client" (caller side) or "server".
	Kind string `json:"kind"`
	// RequestID is the X-Request-ID correlated with the same request, so
	// traces link to request-log events and slow exemplars.
	RequestID string `json:"request_id,omitempty"`
	// Span is the process-local span tree for the request.
	Span *SpanRecord `json:"span"`
}

// Trace kinds for TraceRecord.Kind.
const (
	TraceKindClient = "client"
	TraceKindServer = "server"
)

// TraceLog appends sampled TraceRecords to a run directory's traces.jsonl.
// The file is created on the first kept trace, so runs that sample nothing
// leave no artifact behind. Appends are concurrency-safe (server handlers
// race on it) and a nil *TraceLog no-ops, keeping the tracing-disabled path
// free of both work and allocation.
type TraceLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// closed is set by close: a handler that outlived the drain must not
	// re-create (and so truncate) the file the run already persisted.
	closed bool
	n      atomic.Int64
}

// Append writes rec as one JSONL line, stamping the schema version. Nil
// receivers no-op; after the run dir closes, Append fails and leaves the
// file alone.
func (t *TraceLog) Append(rec TraceRecord) error {
	if t == nil {
		return nil
	}
	rec.V = SchemaVersion
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: marshal trace record: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("obs: append to %s after its run dir closed", TracesFile)
	}
	if t.f == nil {
		f, err := os.Create(t.path)
		if err != nil {
			return fmt.Errorf("obs: create %s: %w", TracesFile, err)
		}
		t.f = f
	}
	if _, err := t.f.Write(append(data, '\n')); err != nil {
		return err
	}
	t.n.Add(1)
	return nil
}

// Len returns the number of records appended so far (0 on nil).
func (t *TraceLog) Len() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// close closes the underlying file if any trace was ever kept.
func (t *TraceLog) close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
