package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hamlet/internal/obs"
)

// spanNode decodes the span tree inside a traces.jsonl line (obs.Span has a
// custom marshaler but no unmarshaler; readers decode the JSON shape).
type spanNode struct {
	Name       string     `json:"name"`
	DurationMS float64    `json:"duration_ms"`
	Children   []spanNode `json:"children"`
}

// traceLine is one decoded traces.jsonl record.
type traceLine struct {
	V            int      `json:"v"`
	TraceID      string   `json:"trace_id"`
	SpanID       string   `json:"span_id"`
	ParentSpanID string   `json:"parent_span_id"`
	Kind         string   `json:"kind"`
	RequestID    string   `json:"request_id"`
	Span         spanNode `json:"span"`
}

func readTraces(t *testing.T, dir string) []traceLine {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, obs.TracesFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []traceLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad traces.jsonl line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	return out
}

func TestTraceMintedWhenAbsent(t *testing.T) {
	dir := t.TempDir()
	run, err := obs.OpenRunDir(dir, &obs.RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sampler = obs.NewSampler(1, 0, 0) // keep everything
	cfg.Traces = run.Traces()
	_, ts := newTestServer(t, cfg)

	resp, _ := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	hdr := resp.Header.Get(obs.TraceparentHeader)
	tc, err := obs.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", hdr, err)
	}
	if !tc.Sampled() {
		t.Errorf("p=1 sampler minted an unsampled context: %q", hdr)
	}
	recs := readTraces(t, dir)
	if len(recs) != 1 {
		t.Fatalf("kept %d traces, want 1", len(recs))
	}
	rec := recs[0]
	if rec.V != obs.SchemaVersion || rec.Kind != obs.TraceKindServer {
		t.Errorf("record v=%d kind=%q", rec.V, rec.Kind)
	}
	if rec.TraceID != tc.TraceIDString() || rec.SpanID != tc.SpanIDString() {
		t.Errorf("record ids %s/%s, response %s/%s", rec.TraceID, rec.SpanID, tc.TraceIDString(), tc.SpanIDString())
	}
	if rec.ParentSpanID != "" {
		t.Errorf("minted trace has parent %q, want none", rec.ParentSpanID)
	}
	if rec.RequestID == "" {
		t.Error("record carries no request ID")
	}
	if rec.Span.Name != "server(decide)" {
		t.Errorf("root span %q, want server(decide)", rec.Span.Name)
	}
	var names []string
	for _, c := range rec.Span.Children {
		names = append(names, c.Name)
	}
	if want := []string{"decode", "decide(Walmart)", "write"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("span children %v, want %v", names, want)
	}
}

func TestTraceAdoptedFromCaller(t *testing.T) {
	dir := t.TempDir()
	run, err := obs.OpenRunDir(dir, &obs.RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sampler = obs.NewSampler(0, 0, 0) // only the inbound flag keeps it
	cfg.Traces = run.Traces()
	_, ts := newTestServer(t, cfg)

	client := obs.NewTraceContext().WithSampled(true)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide",
		strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, client.Traceparent())
	req.Header.Set(RequestIDHeader, "client-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	echo, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if echo.TraceIDString() != client.TraceIDString() {
		t.Errorf("server changed the trace ID: %s -> %s", client.TraceIDString(), echo.TraceIDString())
	}
	if echo.SpanIDString() == client.SpanIDString() {
		t.Error("server reused the caller's span ID")
	}
	if !echo.Sampled() {
		t.Error("server dropped the sampled flag")
	}

	recs := readTraces(t, dir)
	if len(recs) != 1 {
		t.Fatalf("kept %d traces, want 1 (inbound sampled flag must be honored)", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != client.TraceIDString() {
		t.Errorf("record trace ID %s, want the caller's %s", rec.TraceID, client.TraceIDString())
	}
	if rec.ParentSpanID != client.SpanIDString() {
		t.Errorf("record parent %s, want the caller's span %s", rec.ParentSpanID, client.SpanIDString())
	}
	if rec.RequestID != "client-req-7" {
		t.Errorf("record request ID %q", rec.RequestID)
	}
}

func TestTraceTailPolicyOverHTTP(t *testing.T) {
	dir := t.TempDir()
	run, err := obs.OpenRunDir(dir, &obs.RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sampler = obs.NewSampler(0, 0, 0) // nothing head-sampled, no slow rule
	cfg.Traces = run.Traces()
	_, ts := newTestServer(t, cfg)

	// A fast, successful, unsampled request leaves nothing behind.
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	if recs := readTraces(t, dir); len(recs) != 0 {
		t.Fatalf("unsampled success kept %d traces, want 0", len(recs))
	}
	// An error is always kept.
	postRaw(t, ts, []byte(`{not json`))
	recs := readTraces(t, dir)
	if len(recs) != 1 {
		t.Fatalf("error kept %d traces, want 1", len(recs))
	}
	if recs[0].Span.Name != "server(decide)" {
		t.Errorf("error trace root %q", recs[0].Span.Name)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, _ := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	if hdr := resp.Header.Get(obs.TraceparentHeader); hdr != "" {
		t.Errorf("tracing disabled but response carries traceparent %q", hdr)
	}
}

func TestSlowExemplarTraceIDAndLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Slow = time.Nanosecond // everything is slow
	cfg.Sampler = obs.NewSampler(0, 0, 0)
	_, ts := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	}

	get := func(url string) SlowResponse {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", url, resp.StatusCode)
		}
		var out SlowResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := get(ts.URL + "/debug/slow")
	if len(all.Slow) < 3 {
		t.Fatalf("retained %d exemplars, want >= 3", len(all.Slow))
	}
	for _, sr := range all.Slow {
		if sr.TraceID == "" {
			t.Errorf("exemplar %s has no trace ID", sr.ID)
		}
	}
	limited := get(ts.URL + "/debug/slow?n=1")
	if len(limited.Slow) != 1 {
		t.Errorf("?n=1 returned %d exemplars", len(limited.Slow))
	}
	if limited.Total != all.Total {
		t.Errorf("?n=1 total = %d, want the all-time %d", limited.Total, all.Total)
	}
	if limited.Slow[0] != all.Slow[0] {
		t.Error("?n=1 did not return the newest exemplar")
	}
	resp, err := http.Get(ts.URL + "/debug/slow?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?n=bogus status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsBuildInfoAndSLOBurn(t *testing.T) {
	cfg := testConfig()
	cfg.Sampler = obs.NewSampler(1, 0, 0)
	cfg.SLOAvailability = 0.999
	cfg.SLOLatencyObjective = time.Second
	cfg.SLOLatencyTarget = 0.99
	_, ts := newTestServer(t, cfg)
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"# TYPE advisord_build_info gauge",
		`advisord_build_info{version="`,
		`commit="`,
		"advisord_traces_total ",
		"# TYPE advisord_slo_error_budget_burn gauge",
		`advisord_slo_error_budget_burn{slo="availability"} `,
		`advisord_slo_error_budget_burn{slo="latency"} `,
		"advisord_slo_availability_target 0.999",
		"advisord_slo_latency_objective_seconds 1",
		"advisord_slo_latency_target 0.99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A healthy service under the objective burns (close to) nothing.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `advisord_slo_error_budget_burn{slo="latency"} `) {
			if !strings.HasSuffix(line, " 0") {
				t.Errorf("latency burn %q, want 0 for sub-second requests", line)
			}
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestDrainWithConcurrentScrapesAndTraces extends the PR 7 drain test for the
// telemetry surfaces: /metrics scrapes and traced decide requests race a
// SIGTERM-style Shutdown. Run under -race this pins that the trace log, the
// sampler, the SLO gauges, and the drain path share no unsynchronized state.
func TestDrainWithConcurrentScrapesAndTraces(t *testing.T) {
	dir := t.TempDir()
	run, err := obs.OpenRunDir(dir, &obs.RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sampler = obs.NewSampler(1, 1000, time.Nanosecond)
	cfg.Traces = run.Traces()
	cfg.SLOAvailability = 0.999
	cfg.SLOLatencyObjective = time.Millisecond
	cfg.SLOLatencyTarget = 0.99
	s := New(cfg)
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := obs.NewTraceContext().WithSampled(true)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				if i%2 == 0 {
					req, _ := http.NewRequest(http.MethodPost, url+"/v1/decide",
						strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
					req.Header.Set(obs.TraceparentHeader, client.Child().Traceparent())
					resp, err = http.DefaultClient.Do(req)
				} else {
					resp, err = http.Get(url + "/metrics")
				}
				if err != nil {
					return // listener closed mid-drain: expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if err := run.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	if recs := readTraces(t, dir); len(recs) == 0 {
		t.Error("no traces persisted by sampled requests before the drain")
	}
}
