package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hamlet/internal/obs"
	"hamlet/internal/registry"
)

// testConfig keeps generation cheap: the smallest scale the smoke paths use.
func testConfig() Config {
	return Config{Scale: 0.02, Seed: 1}
}

// newTestServer returns a server and an httptest front for handler tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postDecide marshals req and POSTs it to the decide endpoint.
func postDecide(t *testing.T, ts *httptest.Server, req DecideRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, body)
}

func postRaw(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestDecideSingle(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != RequestSchemaVersion {
		t.Errorf("response v = %d, want %d", out.V, RequestSchemaVersion)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(out.Results))
	}
	r := out.Results[0]
	if r.Dataset != "Walmart" || r.Scale != 0.02 || r.Seed != 1 || r.Rule != "TR" {
		t.Errorf("echoed tuple = %+v", r)
	}
	if len(r.Decisions) == 0 {
		t.Fatal("no decisions for Walmart")
	}
	for _, d := range r.Decisions {
		if d.FK == "" || d.Attr == "" || d.DFK <= 0 {
			t.Errorf("implausible decision %+v", d)
		}
	}
}

// TestDecideBatch pins the batch acceptance criterion: a 100-decision batch
// is answered in one round trip, in request order, and the cached stats make
// it cheap (every query after the first hits the registry).
func TestDecideBatch(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	queries := make([]Query, 100)
	for i := range queries {
		queries[i] = Query{Dataset: "Walmart"}
		if i%2 == 1 {
			queries[i].Rule = "ROR"
		}
	}
	resp, data := postDecide(t, ts, DecideRequest{V: RequestSchemaVersion, Requests: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, data)
	}
	var out DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 100 {
		t.Fatalf("results = %d, want 100", len(out.Results))
	}
	for i, r := range out.Results {
		wantRule := "TR"
		if i%2 == 1 {
			wantRule = "ROR"
		}
		if r.Rule != wantRule {
			t.Fatalf("result %d rule = %q, want %q (order not preserved?)", i, r.Rule, wantRule)
		}
	}
	// One dataset generated once, despite 100 queries.
	if n := s.Registry().Len(); n != 1 {
		t.Errorf("registry holds %d entries after a single-dataset batch, want 1", n)
	}
}

func TestDecideMalformed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name string
		body string
		want string
	}{
		{"truncated json", `{"requests": [`, "parse request"},
		{"empty batch", `{"requests": []}`, "empty batch"},
		{"missing requests", `{}`, "empty batch"},
		{"bad rule", `{"requests": [{"dataset": "Walmart", "rule": "XTREME"}]}`, "unknown rule"},
		{"bad scale", `{"requests": [{"dataset": "Walmart", "scale": 7}]}`, "outside (0, 1]"},
		{"negative scale", `{"requests": [{"dataset": "Walmart", "scale": -0.5}]}`, "outside (0, 1]"},
	}
	for _, tc := range cases {
		resp, data := postRaw(t, ts, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body: %s)", tc.name, resp.StatusCode, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: error body is not ErrorResponse: %v", tc.name, err)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
}

func TestDecideUnknownDataset(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "NoSuchDataset"}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (body: %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "NoSuchDataset") {
		t.Errorf("error %q does not name the dataset", e.Error)
	}
}

func TestDecideSchemaVersionMismatch(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{V: RequestSchemaVersion + 1, Requests: []Query{{Dataset: "Walmart"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body: %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "schema") {
		t.Errorf("error %q does not mention the schema", e.Error)
	}
}

func TestDecideMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide status = %d, want 405", resp.StatusCode)
	}
}

func TestDatasetsEnumeratesLoaded(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if want := registry.Names(); fmt.Sprint(out.Available) != fmt.Sprint(want) {
		t.Errorf("available = %v, want %v", out.Available, want)
	}
	if len(out.Loaded) != 1 || out.Loaded[0] != (LoadedDataset{Dataset: "Walmart", Scale: 0.02, Seed: 1}) {
		t.Errorf("loaded = %+v", out.Loaded)
	}
}

func TestHealthAndReadyLifecycle(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before Preload = %d, want 503", code)
	}
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after Preload = %d, want 200", code)
	}
}

// TestMetricsExposesRegistry: after a decide, every metric on the Default
// registry appears on /metrics under hamlet_<PromName> (histograms by their
// _count line), and /debug/vars is not served.
func TestMetricsExposesRegistry(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	status, data := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	lines := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			lines[name] = true
		}
	}
	snap := obs.Default.Snapshot()
	if len(snap) == 0 {
		t.Fatal("the Default registry is empty after a decide")
	}
	for name, v := range snap {
		want := "hamlet_" + obs.PromName(name)
		if _, isHist := v.(obs.HistogramSnapshot); isHist {
			want += "_count"
		}
		if !lines[want] {
			t.Errorf("registry metric %q missing from /metrics as %s", name, want)
		}
	}
	if status, _ := get(t, ts, "/debug/vars"); status != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %d, want 404", status)
	}
}

func TestHistogramsAndStats(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	postRaw(t, ts, []byte("not json")) // one error
	hists := s.Histograms()
	total, ok := hists[obs.LatencyHist]
	if !ok {
		t.Fatalf("no run-level histogram: %v", hists)
	}
	if total.Count != 2 {
		t.Errorf("run-level count = %d, want 2", total.Count)
	}
	decide, ok := hists[obs.LatencyHist+".decide"]
	if !ok || decide.Count != 2 {
		t.Errorf("decide histogram = %+v (ok=%v), want count 2", decide, ok)
	}
	if _, ok := hists[obs.LatencyHist+".healthz"]; ok {
		t.Error("unserved endpoint leaked an empty histogram into the flush")
	}
	reqs, errs := s.Stats()
	if reqs != 2 || errs != 1 {
		t.Errorf("Stats = (%d, %d), want (2, 1)", reqs, errs)
	}
}

func TestRequestLogEvents(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Events = obs.NewEventLog(&syncWriter{w: &buf})
	_, ts := newTestServer(t, cfg)
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}, {Dataset: "Walmart"}}})
	out := buf.String()
	if !strings.Contains(out, `"msg":"http_request"`) {
		t.Fatalf("no http_request event:\n%s", out)
	}
	for _, want := range []string{`"path":"/v1/decide"`, `"status":200`, `"queries":2`, `"method":"POST"`} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %s:\n%s", want, out)
		}
	}
}

// syncWriter serializes writes; handler goroutines share the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestGracefulShutdownDrains pins the drain contract under -race: a request
// in flight when Shutdown begins completes with 200, Shutdown waits for it,
// and requests arriving after the listener closed are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	s.decideHook = func() {
		close(entered)
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Fire the in-flight request; it blocks inside the handler.
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/decide", "application/json",
			strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("in-flight request status = %d", resp.StatusCode)
			return
		}
		reqDone <- nil
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// Shutdown must wait for the blocked request.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-reqDone; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	// The drained server refuses new connections.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("request after shutdown succeeded")
	}
}

// TestShutdownDeadlineExpires: a request that outlives the drain deadline
// surfaces as a Shutdown error, not a hang.
func TestShutdownDeadlineExpires(t *testing.T) {
	s := New(testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	s.decideHook = func() {
		close(entered)
		<-release
	}
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/decide", "application/json",
			strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite an undrained request")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
