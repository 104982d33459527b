package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hamlet/internal/obs"
)

// get fetches a path from the test server and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	// No inbound ID: the server mints one and echoes it.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get(RequestIDHeader)
	if id1 == "" {
		t.Fatal("no X-Request-ID on response to ID-less request")
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id2 := resp2.Header.Get(RequestIDHeader); id2 == id1 {
		t.Errorf("generated IDs collide: %q", id1)
	}

	// An inbound ID is adopted verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-chose-this")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(RequestIDHeader); got != "client-chose-this" {
		t.Errorf("inbound ID not echoed: got %q", got)
	}
}

// TestRequestIDRejectsMalformedInbound: an inbound ID is adopted only when
// it is 1..128 bytes of visible ASCII. Anything else is replaced by a minted
// ID, so no oversized client value reaches the echo, the logs or the slow
// ring.
func TestRequestIDRejectsMalformedInbound(t *testing.T) {
	cfg := testConfig()
	cfg.Slow = time.Nanosecond // every request lands in the slow ring
	_, ts := newTestServer(t, cfg)
	send := func(id string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set(RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get(RequestIDHeader)
	}
	for name, id := range map[string]string{
		"900 KB":    strings.Repeat("x", 900<<10),
		"129 bytes": strings.Repeat("y", 129),
		"space":     "client id",
		"tab":       "client\tid",
	} {
		if got := send(id); got == id || got == "" || len(got) > 128 {
			t.Errorf("%s inbound ID: echoed %.40q (len %d), want a minted ID", name, got, len(got))
		}
	}
	exact := strings.Repeat("z", 128)
	if got := send(exact); got != exact {
		t.Errorf("128-byte inbound ID not echoed verbatim: got %.40q (len %d)", got, len(got))
	}

	_, body := get(t, ts, "/debug/slow")
	var sr SlowResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Slow) != 5 {
		t.Fatalf("slow ring holds %d exemplars, want 5", len(sr.Slow))
	}
	for _, e := range sr.Slow {
		if len(e.ID) > 128 {
			t.Errorf("slow ring retained a %d-byte request ID", len(e.ID))
		}
	}
}

func TestRequestIDInEventLog(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Events = obs.NewEventLog(&syncWriter{w: &buf})
	_, ts := newTestServer(t, cfg)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "evt-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), `"request_id":"evt-42"`) {
		t.Errorf("http_request event missing request_id:\n%s", buf.String())
	}
}

func TestSlowRequestCapture(t *testing.T) {
	var slowLog bytes.Buffer
	cfg := testConfig()
	cfg.Slow = time.Nanosecond // every request is slow
	cfg.SlowLog = &syncWriter{w: &slowLog}
	_, ts := newTestServer(t, cfg)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, body := get(t, ts, "/debug/slow")
	if status != http.StatusOK {
		t.Fatalf("GET /debug/slow = %d", status)
	}
	var sr SlowResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("unmarshal /debug/slow: %v\n%s", err, body)
	}
	if sr.ThresholdNS != 1 {
		t.Errorf("threshold_ns = %d, want 1", sr.ThresholdNS)
	}
	if sr.Total < 1 || len(sr.Slow) < 1 {
		t.Fatalf("slow ring empty: total=%d entries=%d", sr.Total, len(sr.Slow))
	}
	var found bool
	for _, e := range sr.Slow {
		if e.ID == "slow-1" {
			found = true
			if e.Endpoint != "healthz" || e.Status != http.StatusOK || e.DurationNS <= 0 {
				t.Errorf("exemplar fields off: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("exemplar slow-1 not retained: %+v", sr.Slow)
	}
	if !strings.Contains(slowLog.String(), "id=slow-1") {
		t.Errorf("slow log missing request: %q", slowLog.String())
	}
}

func TestSlowRingEvictsOldest(t *testing.T) {
	var r slowRing
	for i := 0; i < slowRingDepth+10; i++ {
		r.add(SlowRequest{DurationNS: int64(i)})
	}
	list, total := r.list()
	if total != slowRingDepth+10 {
		t.Errorf("total = %d, want %d", total, slowRingDepth+10)
	}
	if len(list) != slowRingDepth {
		t.Fatalf("retained = %d, want %d", len(list), slowRingDepth)
	}
	// Newest first: the most recent add leads, the oldest retained closes.
	if list[0].DurationNS != int64(slowRingDepth+9) {
		t.Errorf("newest = %d, want %d", list[0].DurationNS, slowRingDepth+9)
	}
	if last := list[len(list)-1].DurationNS; last != 10 {
		t.Errorf("oldest retained = %d, want 10 (0..9 evicted)", last)
	}
}

func TestSlowCaptureDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body := get(t, ts, "/debug/slow")
	var sr SlowResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ThresholdNS != 0 || sr.Total != 0 || len(sr.Slow) != 0 {
		t.Errorf("slow capture active with Slow=0: %+v", sr)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	postRaw(t, ts, []byte(`{not json`)) // one 400 for the error counter

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)

	for _, want := range []string{
		"# TYPE advisord_requests_total counter",
		"# TYPE advisord_request_latency_seconds summary",
		"# TYPE advisord_request_duration_seconds histogram",
		`advisord_request_latency_seconds{endpoint="decide",quantile="0.99"} `,
		`advisord_request_latency_seconds_count{endpoint="decide"} 2`,
		`advisord_request_duration_seconds_bucket{endpoint="decide",le="+Inf"} 2`,
		`advisord_endpoint_requests_total{endpoint="decide"} 2`,
		"advisord_request_errors_total 1",
		"advisord_in_flight_requests ",
		"advisord_requests_per_second ",
		"advisord_ready 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The run-level (label-free) summary merges every endpoint.
	if !strings.Contains(out, "advisord_request_latency_seconds_count ") {
		t.Error("no run-level latency summary")
	}
	// Registry scalars ride along under the hamlet_ prefix.
	if !strings.Contains(out, "hamlet_") {
		t.Error("no Default-registry metrics in exposition")
	}

	// Every non-comment line must parse as "<series> <float>".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
	}

	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestMetricsRatesMoveUnderTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.Window = time.Second // short window so the rate reflects this test's traffic
	s, ts := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if rate := s.wreq.Rate(); rate <= 0 {
		t.Errorf("request rate = %v after traffic, want > 0", rate)
	}
	if rate := s.werr.Rate(); rate != 0 {
		t.Errorf("error rate = %v with no errors, want 0", rate)
	}
}
