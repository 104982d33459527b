package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hamlet/internal/obs"
	"hamlet/internal/report"
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
		"# TYPE advisord_request_duration_seconds histogram",
		`advisord_request_duration_seconds_count{endpoint="decide"} 2`,
		`advisord_request_duration_seconds_bucket{endpoint="decide",le="+Inf"} 2`,
		"advisord_request_errors_total 1",
		"advisord_in_flight_requests ",
		"advisord_ready 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The run-level (label-free) histogram merges every endpoint.
	if !strings.Contains(out, `advisord_request_duration_seconds_bucket{le="+Inf"} 2`) ||
		!strings.Contains(out, "advisord_request_duration_seconds_count 2\n") {
		t.Error("no run-level latency histogram")
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

// scrape fetches /metrics and indexes its samples by series, the name with
// its label set as rendered ("x_count{endpoint=\"decide\"}").
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	status, data := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// checkRunLevelCount asserts that one scrape's run-level latency count is
// the sum of its per-endpoint counts.
func checkRunLevelCount(t *testing.T, m map[string]float64) {
	t.Helper()
	var sum float64
	for _, ep := range endpoints {
		sum += m[`advisord_request_duration_seconds_count{endpoint="`+ep+`"}`]
	}
	if total := m["advisord_request_duration_seconds_count"]; total != sum {
		t.Errorf("run-level _count = %v, per-endpoint sum = %v", total, sum)
	}
}

// TestMetricsRatesMoveUnderTraffic: /metrics exposes cumulative series only,
// and a watcher derives rates from two scrapes. Between two scrapes the
// counters and the run-level histogram must move by exactly the traffic in
// between.
func TestMetricsRatesMoveUnderTraffic(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	first := scrape(t, ts)
	for i := 0; i < 5; i++ {
		get(t, ts, "/healthz")
	}
	postRaw(t, ts, []byte(`{not json`))
	second := scrape(t, ts)
	// The first scrape is counted once it has answered: 1 + 5 + 1.
	for name, want := range map[string]float64{
		"advisord_requests_total":                                     7,
		"advisord_request_errors_total":                               1,
		"advisord_request_duration_seconds_count":                     7,
		`advisord_request_duration_seconds_count{endpoint="healthz"}`: 5,
	} {
		if d := second[name] - first[name]; d != want {
			t.Errorf("%s moved by %v between scrapes, want %v", name, d, want)
		}
	}
	checkRunLevelCount(t, first)
	checkRunLevelCount(t, second)
}

// TestMetricsRunLevelCountIsEndpointSum: each scrape renders the run-level
// histogram from the same per-endpoint snapshots it exposes, so concurrent
// traffic can never make the two disagree within one scrape.
func TestMetricsRunLevelCountIsEndpointSum(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		checkRunLevelCount(t, scrape(t, ts))
	}
	close(stop)
	wg.Wait()
}

// TestMetricsSLOBurnSinceStart: the burn gauges are the error budget spent
// since start. Availability is (k/N)/(1−target) over the cumulative
// counters; latency equals `report slo`'s histogram-path budget spent on the
// server's own run-level snapshot.
func TestMetricsSLOBurnSinceStart(t *testing.T) {
	cfg := testConfig()
	cfg.SLOAvailability = 0.99
	cfg.SLOLatencyObjective = time.Millisecond
	cfg.SLOLatencyTarget = 0.9
	s, ts := newTestServer(t, cfg)
	// Decide requests sleep past the objective; health checks do not.
	s.decideHook = func() { time.Sleep(2 * time.Millisecond) }
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	for i := 0; i < 3; i++ {
		postRaw(t, ts, []byte(`{not json`))
		get(t, ts, "/healthz")
	}
	n, k := s.Stats()
	// The scrape renders before its own request is counted, so this
	// snapshot is the one it renders.
	hists := s.Histograms()
	m := scrape(t, ts)

	if n != 7 || k != 3 {
		t.Fatalf("Stats = (%d, %d), want (7, 3)", n, k)
	}
	wantAvail := (float64(k) / float64(n)) / (1 - cfg.SLOAvailability)
	if got := m[`advisord_slo_error_budget_burn{slo="availability"}`]; got != wantAvail {
		t.Errorf("availability burn = %v, want %v", got, wantAvail)
	}
	run := &report.Run{Histograms: hists}
	rep := run.SLO(report.SLOOptions{LatencyObjective: cfg.SLOLatencyObjective, LatencyTarget: cfg.SLOLatencyTarget})
	if len(rep.Results) != 1 || rep.Results[0].Source != obs.HistogramsFile {
		t.Fatalf("report slo = %+v, want the histogram path", rep.Results)
	}
	wantLat := rep.Results[0].BudgetSpent
	if got := m[`advisord_slo_error_budget_burn{slo="latency"}`]; got != wantLat || got == 0 {
		t.Errorf("latency burn = %v, want report slo's budget spent %v (> 0)", got, wantLat)
	}
}
