package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hamlet/internal/obs"
	"hamlet/internal/server"
)

// syncBuffer guards the output buffers: run() writes from the daemon
// goroutine while the test reads after it exits.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesDrainsAndPersists drives the daemon end to end in-process:
// ephemeral port, addrfile discovery, a live decide round trip, a real
// SIGTERM, and the flushed run artifacts.
func TestRunServesDrainsAndPersists(t *testing.T) {
	tmp := t.TempDir()
	addrFile := filepath.Join(tmp, "addr")
	outDir := filepath.Join(tmp, "run")
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addrfile", addrFile,
			"-datasets", "Walmart",
			"-scale", "0.02",
			"-slow", "1ns", // every request becomes a slow exemplar
			"-trace-sample", "1",
			"-slo-availability", "0.999",
			"-slo-latency-objective", "100ms",
			"-out", outDir,
		}, &stdout, &stderr)
	}()

	// The addrfile appears once the daemon is ready and listening.
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
			break
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited early with %d\nstderr:\n%s", code, stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatalf("addrfile never appeared\nstderr:\n%s", stderr.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d after preload", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"requests": [{"dataset": "Walmart"}, {"dataset": "Walmart", "rule": "ROR"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out server.DecideResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("decide status %d, %d results", resp.StatusCode, len(out.Results))
	}
	// Tracing is on: the response names the server's span context.
	if _, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); err != nil {
		t.Errorf("decide response traceparent: %v", err)
	}

	// The live telemetry surfaces answer while the daemon serves.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"advisord_requests_total", "advisord_request_duration_seconds", "advisord_ready 1",
		"advisord_build_info{", `advisord_slo_error_budget_burn{slo="availability"}`,
		`advisord_slo_error_budget_burn{slo="latency"}`, "advisord_traces_total",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	resp, err = http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow server.SlowResponse
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total < 1 {
		t.Errorf("-slow 1ns retained no exemplars: %+v", slow)
	}
	for _, sr := range slow.Slow {
		if sr.TraceID == "" {
			t.Errorf("slow exemplar %s carries no trace ID", sr.ID)
		}
	}

	// The real signal: the daemon must drain and exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	for _, want := range []string{"listening on", "served", "traces:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "slow request id=") {
		t.Errorf("stderr missing slow-request log line:\n%s", stderr.String())
	}

	// The addrfile is a liveness signal: a stopped daemon must not leave a
	// stale address behind for the next script to trust.
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Errorf("addrfile still present after clean exit (stat err = %v)", err)
	}

	// The run dir carries the full artifact set; histograms.json holds the
	// per-endpoint latency series under the loadgen-compatible names.
	for _, f := range []string{obs.ManifestFile, obs.EventsFile, obs.MetricsFile, obs.TraceFile, obs.HistogramsFile} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(outDir, obs.HistogramsFile))
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
	total, ok := art.Histograms[obs.LatencyHist]
	if !ok || total.Count < 2 {
		t.Errorf("run-level histogram = %+v (ok=%v), want count ≥ 2", total, ok)
	}
	if h, ok := art.Histograms[obs.LatencyHist+".decide"]; !ok || h.Count < 1 {
		t.Errorf("decide histogram = %+v (ok=%v)", h, ok)
	}
	events, err := os.ReadFile(filepath.Join(outDir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"msg":"http_request"`, `"msg":"advisord_summary"`, `"path":"/v1/decide"`, `"trace_id":"`, `"traces_kept":`} {
		if !bytes.Contains(events, []byte(want)) {
			t.Errorf("events.jsonl missing %s", want)
		}
	}
	// Every request was slow (hence kept): the trace artifact holds server
	// span trees.
	traces, err := os.ReadFile(filepath.Join(outDir, obs.TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"server"`, `"name":"server(decide)"`, `"trace_id":"`} {
		if !bytes.Contains(traces, []byte(want)) {
			t.Errorf("traces.jsonl missing %s:\n%s", want, traces)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-rule", "nope"},
		{"-scale", "0"},
		{"-scale", "1.5"},
		{"-drain", "0s"},
		{"-slow", "-1ms"},
		{"-precision", "-3"},
		{"-precision", strconv.Itoa(obs.MaxPrecision + 1)},
		{"-slo-latency-objective", "-1ms"},
		{"-trace-sample", "1.5"},
		{"-trace-sample", "-0.1"},
		{"-slo-availability", "1"},
		{"-slo-latency-target", "0"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var stdout, stderr syncBuffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

func TestRunUnknownPreloadDatasetFails(t *testing.T) {
	var stdout, stderr syncBuffer
	code := run([]string{"-datasets", "NoSuchDataset", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "NoSuchDataset") {
		t.Errorf("stderr does not name the dataset:\n%s", stderr.String())
	}
}
