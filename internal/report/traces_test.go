package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hamlet/internal/obs"
)

// tracesRun builds an in-memory Run carrying the given trace records.
func tracesRun(recs ...obs.TraceRecord) *Run { return &Run{Traces: recs} }

func clientSpan(start time.Time, durMS float64) *obs.SpanRecord {
	return &obs.SpanRecord{Name: "client(decide)", Start: start, DurationMS: durMS}
}

func serverSpan(start time.Time, durMS float64) *obs.SpanRecord {
	return &obs.SpanRecord{
		Name: "server(decide)", Start: start, DurationMS: durMS,
		Children: []*obs.SpanRecord{
			{Name: "decode", Start: start, DurationMS: 0.1},
			{Name: "decide(Walmart)", Start: start, DurationMS: durMS - 0.2},
		},
	}
}

func TestAssembleTracesJoinsHalves(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	client := tracesRun(
		obs.TraceRecord{TraceID: "aaaa", SpanID: "c1", Kind: "client", RequestID: "req-1",
			Span: clientSpan(t0, 5)},
		obs.TraceRecord{TraceID: "bbbb", SpanID: "c2", Kind: "client", RequestID: "req-2",
			Span: clientSpan(t0.Add(time.Second), 4)},
	)
	server := tracesRun(
		// aaaa's server half parents on the client span: a complete trace.
		obs.TraceRecord{TraceID: "aaaa", SpanID: "s1", ParentSpanID: "c1", Kind: "server",
			RequestID: "req-1", Span: serverSpan(t0.Add(400*time.Microsecond), 3.8)},
		// cccc has no client half: server-only.
		obs.TraceRecord{TraceID: "cccc", SpanID: "s2", ParentSpanID: "nope", Kind: "server",
			RequestID: "req-3", Span: serverSpan(t0.Add(2*time.Second), 2)},
	)
	asm := AssembleTraces(client, server)
	if len(asm.Traces) != 3 || asm.Complete != 1 || asm.ClientOnly != 1 || asm.ServerOnly != 1 {
		t.Fatalf("assembly census = %d traces, %d complete, %d client-only, %d server-only",
			len(asm.Traces), asm.Complete, asm.ClientOnly, asm.ServerOnly)
	}

	// Traces are ordered by root start: aaaa, bbbb, cccc.
	joined := asm.Traces[0]
	if joined.TraceID != "aaaa" || !joined.Complete || joined.RequestID != "req-1" {
		t.Fatalf("joined trace = %+v", joined)
	}
	// The server tree nests under the client span.
	if joined.Root.Kind != "client" || len(joined.Grafts) != 1 {
		t.Fatalf("joined root = %+v, grafts %+v", joined.Root, joined.Grafts)
	}
	srv := joined.Grafts[0]
	if srv.Kind != "server" || srv.Span.Name != "server(decide)" || len(srv.Span.Children) != 2 {
		t.Fatalf("grafted server record = %+v", srv)
	}
	// Skew is the server start offset; net+queue is the duration gap.
	if joined.SkewMS < 0.39 || joined.SkewMS > 0.41 {
		t.Errorf("skew = %gms, want ~0.4", joined.SkewMS)
	}
	if got := joined.NetMS; got < 1.19 || got > 1.21 {
		t.Errorf("net+queue = %gms, want ~1.2 (5.0 client − 3.8 server)", got)
	}

	if at := asm.Traces[1]; at.TraceID != "bbbb" || at.Complete || at.Root.Kind != "client" {
		t.Errorf("client-only trace = %+v", at)
	}
	if at := asm.Traces[2]; at.TraceID != "cccc" || at.Complete || at.Root.Kind != "server" {
		t.Errorf("server-only trace = %+v", at)
	}

	var b strings.Builder
	if err := asm.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"assembled 3 trace(s): 1 complete",
		"trace aaaa (request req-1)",
		"skew +0.40ms, net+queue 1.20ms",
		"client half only",
		"server half only",
		"[server]",
		"decide(Walmart)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The hop tag appears only at the process boundary — on the graft, not
	// on same-kind children nor on a server-only root (its header already
	// names the side).
	if strings.Count(out, "[server]") != 1 {
		t.Errorf("[server] tags = %d, want 1 (the graft only):\n%s",
			strings.Count(out, "[server]"), out)
	}
	const wantOut = `assembled 3 trace(s): 1 complete (client+server), 1 client-only, 1 server-only

trace aaaa (request req-1) — skew +0.40ms, net+queue 1.20ms
  client(decide)  5.00ms
    server(decide)  3.80ms  [server]
      decode  0.10ms
      decide(Walmart)  3.60ms

trace bbbb (request req-2) — client half only
  client(decide)  4.00ms

trace cccc (request req-3) — server half only
  server(decide)  2.00ms
    decode  0.10ms
    decide(Walmart)  1.80ms
`
	if out != wantOut {
		t.Errorf("render diverged:\ngot:\n%s\nwant:\n%s", out, wantOut)
	}
}

func TestAssembleTracesEmpty(t *testing.T) {
	asm := AssembleTraces(tracesRun(), nil)
	if len(asm.Traces) != 0 {
		t.Fatalf("traces = %+v", asm.Traces)
	}
	if err := asm.Write(&strings.Builder{}); err == nil {
		t.Error("rendering an empty assembly must error (vacuous)")
	}
}

// TestTraceRecordRoundTrip: a trace kept through TraceLog reads back whole
// both into the writer's own obs.TraceRecord and through Load, span name,
// counters and children included.
func TestTraceRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rd, err := obs.OpenRunDir(dir, &obs.RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("server(decide)")
	root.Add("queries", 2)
	child := root.Child("decide(Walmart)")
	child.Add("hits", 1)
	child.End()
	root.End()
	want := obs.TraceRecord{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8),
		Kind: obs.TraceKindServer, RequestID: "r-1", Span: root.Record()}
	if err := rd.Traces().Append(want); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	check := func(how string, got obs.TraceRecord) {
		t.Helper()
		if got.TraceID != want.TraceID || got.SpanID != want.SpanID || got.Kind != want.Kind || got.RequestID != want.RequestID {
			t.Errorf("%s: record = %+v", how, got)
		}
		s := got.Span
		if s == nil || s.Name != "server(decide)" || s.Counters["queries"] != 2 || s.DurationMS != want.Span.DurationMS ||
			len(s.Children) != 1 || s.Children[0].Name != "decide(Walmart)" || s.Children[0].Counters["hits"] != 1 {
			t.Errorf("%s: span = %+v", how, s)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, obs.TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	check("json.Unmarshal", rec)
	run, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Traces) != 1 {
		t.Fatalf("Load read %d trace records, want 1", len(run.Traces))
	}
	check("Load", run.Traces[0])
}

// TestLoadTraceLines pins the read half of the traces.jsonl contract
// against a literal line in the written shape.
func TestLoadTraceLines(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"schema_version":1,"tool":"test"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := `{"v":1,"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_span_id":"b7ad6b7169203331","kind":"server","request_id":"r-1","span":{"name":"server(decide)","start":"2026-08-08T12:00:00Z","duration_ms":3.5,"children":[{"name":"decode","start":"2026-08-08T12:00:00Z","duration_ms":0.1}]}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "traces.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Traces) != 1 {
		t.Fatalf("traces = %+v", run.Traces)
	}
	tl := run.Traces[0]
	if tl.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tl.SpanID != "00f067aa0ba902b7" ||
		tl.ParentSpanID != "b7ad6b7169203331" || tl.Kind != "server" || tl.RequestID != "r-1" {
		t.Errorf("trace line = %+v", tl)
	}
	if tl.Span == nil || tl.Span.Name != "server(decide)" || len(tl.Span.Children) != 1 {
		t.Errorf("trace span = %+v", tl.Span)
	}

	// A run without the artifact loads with nil Traces.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "manifest.json"), []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run2, err := Load(empty)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Traces != nil {
		t.Errorf("absent traces.jsonl must load as nil, got %+v", run2.Traces)
	}

	// A future schema stamp is refused, not misread.
	if err := os.WriteFile(filepath.Join(empty, "traces.jsonl"), []byte(`{"v":99,"trace_id":"x","span":{"name":"n"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("a v99 trace line must refuse to load")
	}
}
