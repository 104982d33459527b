package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hamlet/internal/obs"
	"hamlet/internal/server"
)

// drive runs the CLI in-process.
func drive(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunWritesHistogramsArtifact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	code, out, errOut := drive(t,
		"-duration", "50ms", "-workers", "2", "-scale", "0.02", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{"requests:", "latency:", "p50", "p99.9", "precision:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The run dir holds the standard artifacts plus histograms.json.
	for _, f := range []string{obs.ManifestFile, obs.EventsFile, obs.MetricsFile, obs.TraceFile, obs.HistogramsFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, obs.HistogramsFile))
	if err != nil {
		t.Fatal(err)
	}
	var art obs.HistogramsArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.SchemaVersion != obs.SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", art.SchemaVersion, obs.SchemaVersion)
	}
	h, ok := art.Histograms["request_latency_ns"]
	if !ok {
		t.Fatalf("histograms = %v, want request_latency_ns", art.Histograms)
	}
	if h.Count == 0 {
		t.Fatal("recorded zero requests in 50ms")
	}
	if h.Precision != obs.DefaultPrecision {
		t.Errorf("Precision = %d, want %d", h.Precision, obs.DefaultPrecision)
	}
	// Quantiles are monotone and bracketed by the exact extremes.
	qs := []int64{h.Min, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

func TestRunAllDatasetsRecordsPerDatasetHistograms(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	code, _, errOut := drive(t,
		"-duration", "50ms", "-dataset", "all", "-scale", "0.02", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	data, err := os.ReadFile(filepath.Join(dir, obs.HistogramsFile))
	if err != nil {
		t.Fatal(err)
	}
	var art obs.HistogramsArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	total, ok := art.Histograms["request_latency_ns"]
	if !ok {
		t.Fatal("missing run-level histogram")
	}
	var sum int64
	var perDataset int
	for name, h := range art.Histograms {
		if strings.HasPrefix(name, "request_latency_ns.") {
			perDataset++
			sum += h.Count
		}
	}
	if perDataset < 2 {
		t.Fatalf("per-dataset histograms = %d, want several for -dataset all", perDataset)
	}
	if sum != total.Count {
		t.Errorf("per-dataset counts sum to %d, run-level count is %d", sum, total.Count)
	}
}

// TestRunHTTPModeDrivesServer points -url at an in-process internal/server
// and checks the full HTTP leg: readiness wait, batched requests, a clean
// error line, and the same histograms.json shape as an in-process run.
func TestRunHTTPModeDrivesServer(t *testing.T) {
	s := server.New(server.Config{Scale: 0.02, Seed: 1})
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := filepath.Join(t.TempDir(), "run")
	code, out, errOut := drive(t,
		"-url", ts.URL, "-batch", "3", "-duration", "100ms", "-workers", "2",
		"-scale", "0.02", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	for _, want := range []string{"url " + ts.URL, "batch 3", "errors:   0 (0 non-2xx, 0 transport)", "latency:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, obs.HistogramsFile))
	if err != nil {
		t.Fatal(err)
	}
	var art obs.HistogramsArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	h, ok := art.Histograms["request_latency_ns"]
	if !ok || h.Count == 0 {
		t.Fatalf("run-level histogram = %+v (ok=%v), want nonzero count", h, ok)
	}
	// The server saw the traffic: its own decide histogram must cover at
	// least the round trips the client measured (plus the warmup probe).
	srvHists := s.Histograms()
	if sh := srvHists[obs.LatencyHist+".decide"]; sh.Count < h.Count {
		t.Errorf("server decide count = %d, client measured %d", sh.Count, h.Count)
	}
	events, err := os.ReadFile(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"url":"` + ts.URL + `"`, `"batch":3`, `"errors_non2xx":0`, `"errors_transport":0`} {
		if !bytes.Contains(events, []byte(want)) {
			t.Errorf("events.jsonl missing %s", want)
		}
	}
}

// TestRunHTTPModeSendsRequestIDs: every loadgen request — warmup probe and
// driven load alike — names itself with an X-Request-ID, so server-side
// slow-request exemplars and request logs attribute back to the exact
// worker and iteration that sent them.
func TestRunHTTPModeSendsRequestIDs(t *testing.T) {
	var mu sync.Mutex
	ids := make(map[string]bool)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids[r.Header.Get(server.RequestIDHeader)] = true
		mu.Unlock()
	}))
	defer ts.Close()

	code, _, errOut := drive(t,
		"-url", ts.URL, "-ready", "0", "-duration", "50ms", "-workers", "2", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errOut)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ids["loadgen-warmup-Walmart"] {
		t.Error("warmup probe carried no request ID")
	}
	var driven int
	for id := range ids {
		if id == "" {
			t.Fatal("a request arrived without X-Request-ID")
		}
		if strings.HasPrefix(id, "loadgen-") && !strings.HasPrefix(id, "loadgen-warmup-") {
			driven++
		}
	}
	if driven == 0 {
		t.Errorf("no driven request carried a worker/iteration ID: %v", ids)
	}
}

// TestRunHTTPModeAllErrorsFails drives a server that always answers 500:
// the run must finish, report the error counts, and exit 1 because nothing
// succeeded.
func TestRunHTTPModeAllErrorsFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	code, out, errOut := drive(t,
		"-url", ts.URL, "-ready", "0", "-duration", "50ms", "-workers", "2", "-scale", "0.02")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "all") || !strings.Contains(errOut, "failed") {
		t.Errorf("stderr does not report total failure:\n%s", errOut)
	}
	if !strings.Contains(out, "errors:") || strings.Contains(out, "errors:   0 (") {
		t.Errorf("summary does not carry nonzero error counts:\n%s", out)
	}
}

// TestRunHTTPModeUnreachableServerFails: no listener at all is a harness
// failure caught by the warmup probe, before any load is driven.
func TestRunHTTPModeUnreachableServerFails(t *testing.T) {
	// Grab a port that is then closed again, so nothing listens on it.
	ts := httptest.NewServer(http.NotFoundHandler())
	deadURL := ts.URL
	ts.Close()

	code, _, errOut := drive(t,
		"-url", deadURL, "-ready", "0", "-duration", "50ms", "-scale", "0.02")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "warmup probe") {
		t.Errorf("stderr does not mention the warmup probe:\n%s", errOut)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-duration", "0s"},
		{"-rule", "nope"},
		{"-mode", "nope"},
		{"-mode", "analyze", "-method", "nope"},
		{"-url", "http://localhost:1", "-mode", "analyze"},
		{"-url", "http://localhost:1", "-batch", "0"},
		{"-trace-sample", "0.5"}, // tracing without -url
		{"-trace-slow", "1ms"},   // tracing without -url
		{"-url", "http://localhost:1", "-trace-sample", "1.5"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if code, _, _ := drive(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

// readTraceLines decodes a run dir's traces.jsonl (nil when absent).
func readTraceLines(t *testing.T, dir string) []obs.TraceRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, obs.TracesFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.TraceRecord
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec obs.TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad traces.jsonl line %s: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestRunHTTPModeTracing is the cross-process contract end to end: with
// tracing on both sides, a sampled request's trace ID appears in the client
// run dir AND the server run dir, client half pointing at the server half.
func TestRunHTTPModeTracing(t *testing.T) {
	srvDir := filepath.Join(t.TempDir(), "srv")
	srvRun, err := obs.OpenRunDir(srvDir, &obs.RunInfo{Tool: "test-server"})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{
		Scale:   0.02,
		Seed:    1,
		Sampler: obs.NewSampler(1, 0, 0),
		Traces:  srvRun.Traces(),
	})
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := filepath.Join(t.TempDir(), "run")
	code, out, errOut := drive(t,
		"-url", ts.URL, "-duration", "100ms", "-workers", "2",
		"-trace-sample", "1", "-trace-cap", "0",
		"-scale", "0.02", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "traces:") {
		t.Errorf("summary missing the traces line:\n%s", out)
	}

	clientRecs := readTraceLines(t, dir)
	if len(clientRecs) == 0 {
		t.Fatal("client kept no traces at -trace-sample 1")
	}
	serverRecs := readTraceLines(t, srvDir)
	if len(serverRecs) == 0 {
		t.Fatal("server kept no traces for sampled inbound requests")
	}
	// Index the server half by trace ID; every client record's ID must have
	// a server record whose parent is the client's span.
	srvByTrace := make(map[string]obs.TraceRecord, len(serverRecs))
	for _, rec := range serverRecs {
		if rec.Kind != obs.TraceKindServer {
			t.Fatalf("server record kind %q", rec.Kind)
		}
		srvByTrace[rec.TraceID] = rec
	}
	joined := 0
	for _, rec := range clientRecs {
		if rec.Kind != obs.TraceKindClient {
			t.Fatalf("client record kind %q", rec.Kind)
		}
		srec, ok := srvByTrace[rec.TraceID]
		if !ok {
			continue
		}
		joined++
		if srec.ParentSpanID != rec.SpanID {
			t.Fatalf("trace %s: server parent %s, client span %s", rec.TraceID, srec.ParentSpanID, rec.SpanID)
		}
		if srec.RequestID != rec.RequestID {
			t.Errorf("trace %s: request IDs diverge (%q vs %q)", rec.TraceID, srec.RequestID, rec.RequestID)
		}
	}
	if joined == 0 {
		t.Fatal("no trace ID appears in both run dirs")
	}
}

// TestRunTraceRateCapRespected: at -trace-sample 1 with a tight cap, kept
// traces stay bounded by cap·(duration+burst) even though thousands of
// requests are all head-sampled.
func TestRunTraceRateCapRespected(t *testing.T) {
	s := server.New(server.Config{Scale: 0.02, Seed: 1})
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dir := filepath.Join(t.TempDir(), "run")
	const capPerSec = 10.0
	code, _, errOut := drive(t,
		"-url", ts.URL, "-duration", "200ms", "-workers", "4",
		"-trace-sample", "1", "-trace-cap", "10",
		"-scale", "0.02", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	recs := readTraceLines(t, dir)
	// Budget: one-second burst (= the cap) plus refill over the 0.2s run,
	// with slack for scheduling. Anything near the request count means the
	// cap did nothing.
	if n := len(recs); n == 0 || float64(n) > 3*capPerSec {
		t.Errorf("kept %d traces under a %g/s cap in 200ms, want (0, %g]", n, capPerSec, 3*capPerSec)
	}
}

func TestRunUnknownDatasetFails(t *testing.T) {
	code, _, errOut := drive(t, "-duration", "50ms", "-dataset", "NoSuchDataset")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "NoSuchDataset") {
		t.Errorf("stderr does not name the dataset:\n%s", errOut)
	}
}
