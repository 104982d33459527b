package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hamlet/internal/obs"
	"hamlet/internal/server"
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
	p.Histogram("lat_seconds", []string{"endpoint", "decide"}, snap, 1e-9)
	p.Histogram("dur_seconds", nil, snap, 1e-9)
	samples, err := ParsePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parser rejected PromWriter output: %v\n%s", err, b.String())
	}
	byName := make(map[string]int)
	for _, s := range samples {
		byName[s.Name]++
	}
	if byName["req_total"] != 1 || byName["lat_seconds_count"] != 1 || byName["dur_seconds_bucket"] != len(snap.Buckets)+1 {
		t.Errorf("sample census = %v", byName)
	}
}

// exposition renders a run-level latency histogram the way advisord does,
// for the fixtures below: bucket lines are "le count" pairs in seconds.
func exposition(requests, errors int64, count int64, buckets ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "advisord_requests_total %d\nadvisord_request_errors_total %d\n", requests, errors)
	for i := 0; i+1 < len(buckets); i += 2 {
		fmt.Fprintf(&b, "advisord_request_duration_seconds_bucket{le=%q} %s\n", buckets[i], buckets[i+1])
	}
	fmt.Fprintf(&b, "advisord_request_duration_seconds_bucket{le=\"+Inf\"} %d\nadvisord_request_duration_seconds_count %d\n", count, count)
	return b.String()
}

func TestMetricsSource(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `advisord_request_duration_seconds_bucket{endpoint="decide",le="9"} 9
advisord_request_duration_seconds_count{endpoint="decide"} 9
`+exposition(120, 3, 120, "1e-05", "100", "2e-06", "60"))
	}))
	defer ts.Close()
	s, err := MetricsSource(nil, ts.URL)()
	if err != nil {
		t.Fatal(err)
	}
	if s.At.IsZero() {
		t.Error("sample carries no scrape time")
	}
	want := []PromBucket{{LeNS: 2000, Cum: 60}, {LeNS: 10000, Cum: 100}}
	if s.Requests != 120 || s.Errors != 3 || s.Count != 120 || !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("sample = %+v, want 120/3 requests, count 120, buckets %v (per-endpoint series skipped, bounds sorted)", s, want)
	}
	if iv := Interval(WatchSample{}, s); !iv.FromStart || iv.P50NS != 2000 || iv.P99NS != 10000 {
		t.Errorf("first interval = %+v, want p50 2µs, p99 10µs since start", iv)
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

// TestMetricsSourceTimesOut: a daemon that accepts the connection but never
// answers fails the poll, and the watch goes on to the next one.
func TestMetricsSourceTimesOut(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)
	src := MetricsSource(&http.Client{Timeout: 20 * time.Millisecond}, ts.URL)
	var buf bytes.Buffer
	if res := Watch(&buf, src, WatchOptions{Target: "wedged", Polls: 2}); res.Failures != 2 {
		t.Fatalf("result = %+v, want both polls failed by timeout", res)
	}
	if !strings.Contains(buf.String(), "all 2 polls failed") {
		t.Errorf("output:\n%s", buf.String())
	}
}

// sample builds a scrape at second at with every request in a 1µs bucket
// and slow of them in a 4µs one.
func sample(at int64, requests, errors, slow int64) WatchSample {
	return WatchSample{
		At: time.Unix(at, 0), Requests: requests, Errors: errors, Count: requests,
		Buckets:     []PromBucket{{LeNS: 1000, Cum: requests - slow}, {LeNS: 4000, Cum: requests}},
		AvailTarget: 0.5, LatObjectiveNS: 1000, LatTarget: 0.75,
	}
}

// TestIntervalDifferencesScrapes: rate, quantiles and burns describe only
// the traffic between two scrapes, and a count that goes down (a restarted
// daemon) restarts the interval at process start.
func TestIntervalDifferencesScrapes(t *testing.T) {
	first := sample(10, 100, 50, 0)
	second := sample(12, 300, 60, 100)

	iv := Interval(WatchSample{}, first)
	if _, ok := iv.Rate(); ok || !iv.FromStart || iv.P99NS != 1000 || iv.AvailBurn != 1 || iv.LatBurn != 0 {
		t.Errorf("first interval = %+v, want since start: no rate, p99 1µs, burns 1/0", iv)
	}
	iv = Interval(first, second)
	// 200 requests in 2s: 10 errors, 100 of them slow.
	if rate, ok := iv.Rate(); !ok || rate != 100 || iv.Requests != 200 || iv.Errors != 10 {
		t.Errorf("second interval = %+v, want 200 requests at 100/s", iv)
	}
	if iv.P50NS != 1000 || iv.P99NS != 4000 {
		t.Errorf("second interval quantiles = %d/%d, want 1µs/4µs", iv.P50NS, iv.P99NS)
	}
	if iv.AvailBurn != (10.0/200)/0.5 || iv.LatBurn != (100.0/200)/0.25 {
		t.Errorf("second interval burns = %v/%v", iv.AvailBurn, iv.LatBurn)
	}
	restarted := sample(13, 40, 0, 40)
	if iv := Interval(second, restarted); !iv.FromStart || iv.Requests != 40 || iv.P50NS != 4000 {
		t.Errorf("after restart = %+v, want the 40 requests since the new start", iv)
	}
}

func TestWatchRendersDeltasAndSummary(t *testing.T) {
	var n int64
	src := func() (WatchSample, error) {
		n += 100
		return sample(n/100, n, n/100, 0), nil
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
	for _, want := range []string{"watch test: 3 polls", "p50", "300", "100.0", "(+1)", "1µs", "watched 3 polls (0 failed)"} {
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
		return sample(n, n*100, n*25, n*25), nil
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
	// 25 of 100 requests failed and 25 ran slow: burns 0.25/0.5 and 0.25/0.25.
	if polls[0].BurnAvailability == nil || *polls[0].BurnAvailability != 0.5 ||
		polls[0].BurnLatency == nil || *polls[0].BurnLatency != 1 {
		t.Errorf("burn fields = %+v", polls[0])
	}
	if polls[1].Error == "" || polls[1].Requests != 0 {
		t.Errorf("failed poll = %+v, want an error field", polls[1])
	}
	// The third poll differences against the first: 200 requests in 2s.
	if polls[2].Poll != 3 || polls[2].Requests != 300 || polls[2].RatePerSec == nil || *polls[2].RatePerSec != 100 {
		t.Errorf("third poll = %+v (rate resumes once a prior sample exists)", polls[2])
	}
	var sum WatchSummaryJSON
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil {
		t.Fatalf("summary row %q: %v", lines[3], err)
	}
	want := WatchSummaryJSON{Summary: true, Polls: 3, Failures: 1, Requests: 300, Errors: 75, P99NS: 4000}
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

// TestWatchBurnColumnFromMetrics: a server exposing SLO targets gets
// per-poll burns in both the interval and the text rendering.
func TestWatchBurnColumnFromMetrics(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, exposition(10, 1, 10, "0.001", "6", "0.002", "10")+`advisord_slo_availability_target 0.75
advisord_slo_latency_objective_seconds 0.001
advisord_slo_latency_target 0.5
`)
	}))
	defer ts.Close()
	s, err := MetricsSource(nil, ts.URL)()
	if err != nil {
		t.Fatal(err)
	}
	if s.AvailTarget != 0.75 || s.LatObjectiveNS != 1e6 || s.LatTarget != 0.5 {
		t.Fatalf("sample = %+v, want targets 0.75, 1ms, 0.5", s)
	}
	// 1 of 10 failed against a 25% budget; 4 of 10 ran slow against 50%.
	if iv := Interval(WatchSample{}, s); iv.AvailBurn != 0.4 || iv.LatBurn != 0.8 {
		t.Fatalf("interval = %+v, want burn 0.4/0.8", iv)
	}
	var buf bytes.Buffer
	Watch(&buf, MetricsSource(nil, ts.URL), WatchOptions{Target: ts.URL, Polls: 1})
	if !strings.Contains(buf.String(), "burn 0.40/0.80") {
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

// TestWatchLiveServerIntervals polls a live server. The first poll's
// quantiles are the run-level Histograms() snapshot's; the second's are the
// bucket-wise difference of two snapshots; both agree within the bucket
// bound. The rate is Δrequests/Δt, and a fresh server (a restart) starts a
// new interval.
func TestWatchLiveServerIntervals(t *testing.T) {
	srv := server.New(server.Config{Scale: 0.02, Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hit := func(ts *httptest.Server, path string, n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	src := MetricsSource(nil, ts.URL+"/metrics")
	poll := func() WatchSample {
		t.Helper()
		s, err := src()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A scrape renders before its own request is observed, so a snapshot
	// taken just before it is exactly what it exposes.
	hit(ts, "/v1/datasets", 20)
	hit(ts, "/healthz", 130)
	snap1 := srv.Histograms()[obs.LatencyHist]
	s1 := poll()
	hit(ts, "/healthz", 200)
	hit(ts, "/v1/datasets", 5)
	snap2 := srv.Histograms()[obs.LatencyHist]
	s2 := poll()

	iv1 := Interval(WatchSample{}, s1)
	if !iv1.FromStart || iv1.Count != snap1.Count {
		t.Fatalf("first interval = %+v, want since start over %d requests", iv1, snap1.Count)
	}
	checkQuantiles(t, "poll 1", iv1, snap1)

	diff := obs.HistogramSnapshot{Precision: snap2.Precision, Count: snap2.Count - snap1.Count,
		Max: math.MaxInt64, Buckets: make(map[int]int64)}
	for i, n := range snap2.Buckets {
		if d := n - snap1.Buckets[i]; d > 0 {
			diff.Buckets[i] = d
		}
	}
	iv2 := Interval(s1, s2)
	if iv2.FromStart || iv2.Count != diff.Count || iv2.Requests != 206 {
		t.Fatalf("second interval = %+v, want %d observations and 206 requests (the first scrape's own included)", iv2, diff.Count)
	}
	checkQuantiles(t, "poll 2", iv2, diff)
	if rate, ok := iv2.Rate(); !ok || rate != float64(s2.Requests-s1.Requests)/s2.At.Sub(s1.At).Seconds() {
		t.Errorf("rate = %v (ok=%v), want Δrequests/Δt", rate, ok)
	}

	restarted := server.New(server.Config{Scale: 0.02, Seed: 1})
	rts := httptest.NewServer(restarted.Handler())
	defer rts.Close()
	hit(rts, "/healthz", 3)
	snap3 := restarted.Histograms()[obs.LatencyHist]
	s3, err := MetricsSource(nil, rts.URL+"/metrics")()
	if err != nil {
		t.Fatal(err)
	}
	iv3 := Interval(s2, s3)
	if _, ok := iv3.Rate(); ok || !iv3.FromStart || iv3.Requests != 3 {
		t.Fatalf("after restart = %+v, want a new interval of 3 requests", iv3)
	}
	checkQuantiles(t, "after restart", iv3, snap3)
}

// checkQuantiles asserts an interval's p50/p99 are ref's quantiles within
// its bucket bound: never under, and over by at most a factor 1+2^-p.
func checkQuantiles(t *testing.T, name string, iv WatchInterval, ref obs.HistogramSnapshot) {
	t.Helper()
	bound := 1 + ref.MaxQuantileError()
	for _, c := range []struct {
		q   float64
		got int64
	}{{0.5, iv.P50NS}, {0.99, iv.P99NS}} {
		want := ref.Quantile(c.q)
		if c.got < want || float64(c.got) > float64(want)*bound {
			t.Errorf("%s: p%g = %d ns, want %d ns within ×%v", name, 100*c.q, c.got, want, bound)
		}
	}
}
