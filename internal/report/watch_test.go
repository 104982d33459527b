package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"hamlet/internal/obs"
)

func TestParsePromText(t *testing.T) {
	in := `# HELP x_total Help.
# TYPE x_total counter
x_total 42

g{path="a\"b\\c\nd",quantile="0.5"} 1.5
inf_bucket{le="+Inf"} 7
stamped 3 1700000000000
`
	samples, err := ParsePromText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4: %+v", len(samples), samples)
	}
	if s := samples[0]; s.Name != "x_total" || s.Value != 42 || s.Labels != nil {
		t.Errorf("scalar sample = %+v", s)
	}
	if s := samples[1]; s.Label("path") != "a\"b\\c\nd" || s.Label("quantile") != "0.5" || s.Value != 1.5 {
		t.Errorf("labeled sample = %+v", s)
	}
	if s := samples[2]; s.Label("le") != "+Inf" || s.Value != 7 {
		t.Errorf("+Inf-labeled sample = %+v", s)
	}
	if s := samples[3]; s.Name != "stamped" || s.Value != 3 {
		t.Errorf("timestamped sample = %+v (timestamp must be dropped)", s)
	}

	for _, bad := range []string{"novalue", "name{unclosed 1", "name{x=\"y\"} notanumber"} {
		if _, err := ParsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePromText(%q) accepted a malformed line", bad)
		}
	}
}

// TestParsePromTextRoundTrip: the parser must read back exactly what the
// obs.PromWriter emits — the two halves of the exposition pipeline agree.
func TestParsePromTextRoundTrip(t *testing.T) {
	h := obs.NewHistogram(obs.DefaultPrecision)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	snap := h.Snapshot()
	var b strings.Builder
	p := obs.NewPromWriter(&b)
	p.Type("req_total", "counter", "Requests.")
	p.Int("req_total", nil, 100)
	p.Summary("lat_seconds", []string{"endpoint", "decide"}, snap, snap, 1e-9, 0.5, 0.99)
	p.Histogram("dur_seconds", nil, snap, 1e-9)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parser rejected PromWriter output: %v\n%s", err, b.String())
	}
	byName := make(map[string]int)
	for _, s := range samples {
		byName[s.Name]++
	}
	if byName["req_total"] != 1 || byName["lat_seconds"] != 2 || byName["dur_seconds_bucket"] == 0 {
		t.Errorf("sample census = %v", byName)
	}
}

func TestMetricsSource(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `advisord_requests_total 120
advisord_request_errors_total 3
advisord_request_latency_seconds{endpoint="decide",quantile="0.5"} 9
advisord_request_latency_seconds{quantile="0.5"} 0.000002
advisord_request_latency_seconds{quantile="0.99"} 0.00001
`)
	}))
	defer ts.Close()
	s, err := MetricsSource(nil, ts.URL)()
	if err != nil {
		t.Fatal(err)
	}
	want := WatchSample{Requests: 120, Errors: 3, P50NS: 2000, P99NS: 10000}
	if s != want {
		t.Errorf("sample = %+v, want %+v (per-endpoint series must be skipped)", s, want)
	}
}

func TestMetricsSourceRejectsForeignExposition(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "some_other_metric 1\n")
	}))
	defer ts.Close()
	if _, err := MetricsSource(nil, ts.URL)(); err == nil {
		t.Error("a non-advisord exposition must error, not report zeros")
	}
}

func TestWatchRendersDeltasAndSummary(t *testing.T) {
	var n int64
	src := func() (WatchSample, error) {
		n += 100
		return WatchSample{Requests: n, Errors: n / 100, P50NS: 1000, P99NS: 5000}, nil
	}
	var buf bytes.Buffer
	res := Watch(&buf, src, WatchOptions{Target: "test", Polls: 3})
	if res.Polls != 3 || res.Failures != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Last.Requests != 300 {
		t.Errorf("last sample = %+v", res.Last)
	}
	out := buf.String()
	for _, want := range []string{"watch test: 3 polls", "p50", "300", "(+1)", "watched 3 polls (0 failed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchJSONRoundTrip: -format json emits one decodable object per poll
// plus a summary object, and every field survives the trip.
func TestWatchJSONRoundTrip(t *testing.T) {
	var n int64
	src := func() (WatchSample, error) {
		n++
		if n == 2 {
			return WatchSample{}, fmt.Errorf("scrape refused")
		}
		return WatchSample{
			Requests: n * 100, Errors: n, P50NS: 1000, P99NS: 5000,
			AvailBurn: 0.25, LatBurn: 1.5, HasBurn: true,
		}, nil
	}
	var buf bytes.Buffer
	res := Watch(&buf, src, WatchOptions{Target: "test", Polls: 3, Format: "json"})
	if res.Polls != 3 || res.Failures != 1 {
		t.Fatalf("result = %+v", res)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("emitted %d lines, want 3 polls + summary:\n%s", len(lines), buf.String())
	}
	var polls []WatchPollJSON
	for _, ln := range lines[:3] {
		var row WatchPollJSON
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("poll row %q: %v", ln, err)
		}
		polls = append(polls, row)
	}
	if polls[0].Poll != 1 || polls[0].Requests != 100 || polls[0].RatePerSec != nil {
		t.Errorf("first poll = %+v (no rate before a delta exists)", polls[0])
	}
	if polls[0].BurnAvailability == nil || *polls[0].BurnAvailability != 0.25 ||
		polls[0].BurnLatency == nil || *polls[0].BurnLatency != 1.5 {
		t.Errorf("burn fields = %+v", polls[0])
	}
	if polls[1].Error == "" || polls[1].Requests != 0 {
		t.Errorf("failed poll = %+v, want an error field", polls[1])
	}
	if polls[2].Poll != 3 || polls[2].Requests != 300 || polls[2].RatePerSec == nil {
		t.Errorf("third poll = %+v (rate resumes once a prior sample exists)", polls[2])
	}
	var sum WatchSummaryJSON
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil {
		t.Fatalf("summary row %q: %v", lines[3], err)
	}
	want := WatchSummaryJSON{Summary: true, Polls: 3, Failures: 1, Requests: 300, Errors: 3, P99NS: 5000}
	if sum != want {
		t.Errorf("summary = %+v, want %+v", sum, want)
	}
	// No stray text: every line must be JSON.
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "{") {
			t.Errorf("non-JSON line in -format json output: %q", ln)
		}
	}
}

// TestWatchBurnColumnFromMetrics: a server exposing SLO burn gauges shows
// up in both the parsed sample and the text rendering.
func TestWatchBurnColumnFromMetrics(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `advisord_requests_total 10
advisord_request_latency_seconds{quantile="0.5"} 0.001
advisord_request_latency_seconds{quantile="0.99"} 0.002
advisord_slo_error_budget_burn{slo="availability"} 0.5
advisord_slo_error_budget_burn{slo="latency"} 2.25
`)
	}))
	defer ts.Close()
	s, err := MetricsSource(nil, ts.URL)()
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasBurn || s.AvailBurn != 0.5 || s.LatBurn != 2.25 {
		t.Fatalf("sample = %+v, want burn 0.5/2.25", s)
	}
	var buf bytes.Buffer
	Watch(&buf, MetricsSource(nil, ts.URL), WatchOptions{Target: ts.URL, Polls: 1})
	if !strings.Contains(buf.String(), "burn 0.50/2.25") {
		t.Errorf("text watch does not surface the burn rates:\n%s", buf.String())
	}
}

func TestWatchAllPollsFail(t *testing.T) {
	src := func() (WatchSample, error) { return WatchSample{}, fmt.Errorf("connection refused") }
	var buf bytes.Buffer
	res := Watch(&buf, src, WatchOptions{Target: "dead", Polls: 2})
	if res.Failures != 2 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(buf.String(), "all 2 polls failed") {
		t.Errorf("output:\n%s", buf.String())
	}
}

// TestLatencyFormatsRoundTrip: the csv and json renderings carry exactly the
// rows LatencyRows computes — parse both back and compare.
func TestLatencyFormatsRoundTrip(t *testing.T) {
	r := loadFixture(t, "latency_base")
	rows, err := r.LatencyRows()
	if err != nil {
		t.Fatal(err)
	}

	var jb bytes.Buffer
	if err := r.WriteLatencyJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back []LatencyRow
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Errorf("json round trip: got %+v, want %+v", back, rows)
	}

	var cb bytes.Buffer
	if err := r.WriteLatencyCSV(&cb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&cb).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rows)+1 {
		t.Fatalf("csv records = %d, want %d rows + header", len(recs), len(rows))
	}
	wantHeader := []string{"histogram", "count", "min_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns", "mean_ns", "precision"}
	if !reflect.DeepEqual(recs[0], wantHeader) {
		t.Errorf("csv header = %v", recs[0])
	}
	for i, row := range rows {
		rec := recs[i+1]
		if rec[0] != row.Histogram || rec[1] != fmt.Sprint(row.Count) || rec[5] != fmt.Sprint(row.P99NS) {
			t.Errorf("csv row %d = %v, want %+v", i, rec, row)
		}
	}

	var empty Run
	empty.Dir = "x"
	if err := empty.WriteLatencyCSV(&bytes.Buffer{}); err == nil {
		t.Error("WriteLatencyCSV on a histogram-less run should error")
	}
	if err := empty.WriteLatencyJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteLatencyJSON on a histogram-less run should error")
	}
}
