package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hamlet/internal/obs"
)

// This file is the live half of the latency read side: where latency.go
// renders a finished run's histograms.json, `report watch` polls a running
// advisord's /metrics exposition. Every series there is cumulative since
// the daemon started, so each poll's rate, p50/p99 and SLO burns come from
// the difference between two consecutive scrapes: a bucket's count over
// the interval is its cumulative count now minus its count at the previous
// scrape, and a quantile read from those differences carries the same
// relative error bound, 2^-precision, as one read from a single snapshot.
// It is a view, not a gate: `report latency base new` gates a regression
// between runs and `report slo` gates a run against an objective. The
// exposition parser is the read complement of internal/obs's PromWriter.

// PromSample is one parsed exposition sample line.
type PromSample struct {
	// Name is the metric name ("advisord_requests_total").
	Name string
	// Labels holds the sample's label pairs (nil when unlabeled).
	Labels map[string]string
	// Value is the sample value (+Inf parses).
	Value float64
}

// Label returns the value of the named label ("" when absent).
func (s PromSample) Label(key string) string { return s.Labels[key] }

// ParsePromText parses a Prometheus text exposition (format 0.0.4) into its
// samples. Comment and blank lines are skipped; a malformed sample line is
// an error naming the line. It accepts exactly what obs.PromWriter emits —
// plus optional trailing timestamps, which real exporters attach.
func ParsePromText(r io.Reader) ([]PromSample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []PromSample
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("report: exposition line %q: %w", line, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parsePromLine parses one sample line: name[{labels}] value [timestamp].
func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		s.Name = line[:brace]
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set")
		}
		labels, err := parsePromLabels(line[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(line[end+1:])
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no sample value")
		}
		s.Name = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name")
	}
	// Drop an optional trailing timestamp: "value ts".
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses `k="v",k2="v2"` with the format's three escapes
// (backslash, quote, newline).
func parsePromLabels(in string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(in) {
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' at %q", in[i:])
		}
		key := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, fmt.Errorf("unquoted value for label %q", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return nil, fmt.Errorf("unterminated value for label %q", key)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
	return labels, nil
}

// PromBucket is one cumulative histogram bucket: Cum observations at or
// under LeNS nanoseconds.
type PromBucket struct {
	LeNS, Cum int64
}

// WatchSample is one scrape of a live advisord's cumulative series.
type WatchSample struct {
	// At is when the scrape was sent.
	At time.Time
	// Requests and Errors are the cumulative request and 4xx/5xx counters.
	Requests, Errors int64
	// Buckets and Count are the run-level (endpoint-unlabeled)
	// advisord_request_duration_seconds histogram: finite buckets in
	// ascending bound order, and its _count.
	Buckets []PromBucket
	Count   int64
	// AvailTarget, LatObjectiveNS and LatTarget are the SLO targets the
	// server exposes; zero when it runs without the matching SLO flags.
	AvailTarget    float64
	LatObjectiveNS int64
	LatTarget      float64
}

// WatchInterval is what a live advisord did between two scrapes.
type WatchInterval struct {
	// FromStart marks an interval that begins at process start: the first
	// poll, or a poll whose counts went down (the daemon restarted). Its
	// length is unknown, so it has no rate.
	FromStart bool
	// Seconds is the time between the two scrapes (0 when FromStart).
	Seconds float64
	// Requests, Errors and Count are the interval's requests, 4xx/5xx
	// answers and latency observations.
	Requests, Errors, Count int64
	// P50NS and P99NS are the interval's latency quantiles: the upper bound
	// of the bucket holding each rank, within 2^-precision of the truth.
	P50NS, P99NS int64
	// AvailBurn and LatBurn are the interval's error-budget burn, valid when
	// the server exposes the matching SLO targets.
	AvailBurn, LatBurn       float64
	HasAvailBurn, HasLatBurn bool
}

// Rate returns the interval's request rate, false when its length is
// unknown.
func (iv WatchInterval) Rate() (float64, bool) {
	if iv.FromStart || iv.Seconds <= 0 {
		return 0, false
	}
	return float64(iv.Requests) / iv.Seconds, true
}

// Interval derives the interval between two scrapes from their difference.
// A zero prev, or one whose counts exceed cur's, makes the interval run from
// process start.
func Interval(prev, cur WatchSample) WatchInterval {
	var iv WatchInterval
	if prev.At.IsZero() || cur.Requests < prev.Requests || cur.Errors < prev.Errors || cur.Count < prev.Count {
		prev, iv.FromStart = WatchSample{}, true
	} else {
		iv.Seconds = cur.At.Sub(prev.At).Seconds()
	}
	iv.Requests, iv.Errors, iv.Count = cur.Requests-prev.Requests, cur.Errors-prev.Errors, cur.Count-prev.Count
	iv.P50NS = intervalQuantile(prev.Buckets, cur.Buckets, iv.Count, 0.5)
	iv.P99NS = intervalQuantile(prev.Buckets, cur.Buckets, iv.Count, 0.99)
	if cur.AvailTarget > 0 {
		iv.AvailBurn, iv.HasAvailBurn = obs.BudgetBurn(iv.Errors, iv.Requests, cur.AvailTarget), true
	}
	if cur.LatObjectiveNS > 0 && cur.LatTarget > 0 {
		good := cumAt(cur.Buckets, cur.LatObjectiveNS) - cumAt(prev.Buckets, cur.LatObjectiveNS)
		iv.LatBurn, iv.HasLatBurn = obs.BudgetBurn(iv.Count-good, iv.Count, cur.LatTarget), true
	}
	return iv
}

// cumAt returns the cumulative count at the largest bucket bound ≤ le: the
// observations known to be at or under le.
func cumAt(bs []PromBucket, le int64) int64 {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].LeNS > le })
	if i == 0 {
		return 0
	}
	return bs[i-1].Cum
}

// intervalQuantile returns the upper bound of the first bucket whose count
// over the interval reaches rank ⌈q·n⌉ (0 when the interval is empty).
func intervalQuantile(prev, cur []PromBucket, n int64, q float64) int64 {
	if n <= 0 || len(cur) == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	for _, b := range cur {
		if b.Cum-cumAt(prev, b.LeNS) >= rank {
			return b.LeNS
		}
	}
	return cur[len(cur)-1].LeNS
}

// WatchSource produces one sample per call. An error marks the poll failed;
// the watcher reports it and keeps polling.
type WatchSource func() (WatchSample, error)

// watchTimeout bounds one scrape by the default client, so a daemon that
// accepts the connection but never answers fails the poll instead of
// hanging the watch.
const watchTimeout = 10 * time.Second

// MetricsSource polls a live advisord /metrics endpoint for its run-level
// cumulative series. A nil client means one with watchTimeout.
func MetricsSource(client *http.Client, url string) WatchSource {
	if client == nil {
		client = &http.Client{Timeout: watchTimeout}
	}
	return func() (WatchSample, error) {
		out := WatchSample{At: time.Now()}
		resp, err := client.Get(url)
		if err != nil {
			return WatchSample{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return WatchSample{}, fmt.Errorf("report: GET %s: HTTP %d", url, resp.StatusCode)
		}
		samples, err := ParsePromText(resp.Body)
		if err != nil {
			return WatchSample{}, err
		}
		var sawRequests bool
		for _, s := range samples {
			switch s.Name {
			case "advisord_requests_total":
				out.Requests, sawRequests = int64(s.Value), true
			case "advisord_request_errors_total":
				out.Errors = int64(s.Value)
			case "advisord_request_duration_seconds_bucket":
				le := s.Label("le")
				if s.Label("endpoint") != "" || le == "+Inf" {
					continue // per-endpoint series; the run-level one is unlabeled
				}
				sec, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return WatchSample{}, fmt.Errorf("report: bucket bound %q: %w", le, err)
				}
				out.Buckets = append(out.Buckets, PromBucket{LeNS: nanos(sec), Cum: int64(s.Value)})
			case "advisord_request_duration_seconds_count":
				if s.Label("endpoint") == "" {
					out.Count = int64(s.Value)
				}
			case "advisord_slo_availability_target":
				out.AvailTarget = s.Value
			case "advisord_slo_latency_objective_seconds":
				out.LatObjectiveNS = nanos(s.Value)
			case "advisord_slo_latency_target":
				out.LatTarget = s.Value
			}
		}
		if !sawRequests {
			return WatchSample{}, fmt.Errorf("report: %s is not an advisord exposition (no advisord_requests_total)", url)
		}
		sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].LeNS < out.Buckets[j].LeNS })
		return out, nil
	}
}

// nanos converts exposed seconds back to the integer nanoseconds they were
// scaled from.
func nanos(sec float64) int64 {
	ns := math.Round(sec * 1e9)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(ns)
}

// WatchOptions configures a watch loop.
type WatchOptions struct {
	// Target labels the watched URL in the header.
	Target string
	// Interval is the poll period (0 = poll back-to-back; tests).
	Interval time.Duration
	// Polls bounds the loop; <= 0 watches forever (the interactive mode,
	// ended by interrupt).
	Polls int
	// Format selects the rendering: "" or "text" for the human table,
	// "json" for one JSON object per poll (JSONL) plus a summary object —
	// the machine-readable twin for piping into jq or a dashboard.
	Format string
}

// WatchPollJSON is one poll's row in `watch -format json` output. Optional
// fields are pointers so a missing value round-trips as null, not zero.
type WatchPollJSON struct {
	Poll     int    `json:"poll"`
	Error    string `json:"error,omitempty"`
	Requests int64  `json:"requests"`
	// RatePerSec is nil when the interval starts at process start (the
	// first poll, or after a restart).
	RatePerSec *float64 `json:"rate_per_sec,omitempty"`
	Errors     int64    `json:"errors"`
	// P50NS and P99NS are the poll interval's latency quantiles.
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	// BurnAvailability and BurnLatency are the poll interval's SLO burns
	// (nil when the server exposes no such SLO).
	BurnAvailability *float64 `json:"burn_availability,omitempty"`
	BurnLatency      *float64 `json:"burn_latency,omitempty"`
}

// WatchSummaryJSON is the final row of `watch -format json` output: the
// last scrape's totals and its p99 since process start.
type WatchSummaryJSON struct {
	Summary  bool  `json:"summary"`
	Polls    int   `json:"polls"`
	Failures int   `json:"failures"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	P99NS    int64 `json:"p99_ns"`
}

// WatchResult is a watch loop's outcome.
type WatchResult struct {
	// Polls and Failures count polls attempted and polls that errored.
	Polls, Failures int
	// Last is the final successful sample (zero if every poll failed).
	Last WatchSample
}

// Watch polls src and renders one line per poll: cumulative requests and
// errors, then the rate, error delta, p50/p99 and SLO burns of the interval
// since the previous successful poll (since process start on the first).
func Watch(w io.Writer, src WatchSource, opt WatchOptions) WatchResult {
	jsonOut := opt.Format == "json"
	enc := json.NewEncoder(w)
	if !jsonOut {
		fmt.Fprintf(w, "watch %s", opt.Target)
		if opt.Polls > 0 {
			fmt.Fprintf(w, ": %d polls", opt.Polls)
		}
		if opt.Interval > 0 {
			fmt.Fprintf(w, " every %v", opt.Interval)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%6s  %10s  %10s  %8s  %10s  %10s\n",
			"poll", "requests", "rate/s", "errors", "p50", "p99")
	}

	var res WatchResult
	for i := 0; opt.Polls <= 0 || i < opt.Polls; i++ {
		if i > 0 && opt.Interval > 0 {
			time.Sleep(opt.Interval)
		}
		res.Polls++
		s, err := src()
		if err != nil {
			res.Failures++
			if jsonOut {
				_ = enc.Encode(WatchPollJSON{Poll: i + 1, Error: err.Error()})
			} else {
				fmt.Fprintf(w, "%6d  poll failed: %v\n", i+1, err)
			}
			continue
		}
		iv := Interval(res.Last, s)
		rate, hasRate := iv.Rate()
		if jsonOut {
			row := WatchPollJSON{
				Poll: i + 1, Requests: s.Requests,
				Errors: s.Errors, P50NS: iv.P50NS, P99NS: iv.P99NS,
			}
			if hasRate {
				row.RatePerSec = &rate
			}
			if iv.HasAvailBurn {
				row.BurnAvailability = &iv.AvailBurn
			}
			if iv.HasLatBurn {
				row.BurnLatency = &iv.LatBurn
			}
			_ = enc.Encode(row)
		} else {
			rateCol, errDelta, status := "-", "", ""
			if hasRate {
				rateCol = fmt.Sprintf("%.1f", rate)
			}
			if !iv.FromStart && iv.Errors > 0 {
				errDelta = fmt.Sprintf(" (+%d)", iv.Errors)
			}
			if iv.HasAvailBurn || iv.HasLatBurn {
				status = "  burn " + burnCol(iv.AvailBurn, iv.HasAvailBurn) + "/" + burnCol(iv.LatBurn, iv.HasLatBurn)
			}
			fmt.Fprintf(w, "%6d  %10d  %10s  %8s  %10v  %10v%s\n",
				i+1, s.Requests, rateCol,
				strconv.FormatInt(s.Errors, 10)+errDelta,
				time.Duration(iv.P50NS), time.Duration(iv.P99NS), status)
		}
		res.Last = s
	}
	p99 := Interval(WatchSample{}, res.Last).P99NS
	if jsonOut {
		_ = enc.Encode(WatchSummaryJSON{
			Summary: true, Polls: res.Polls, Failures: res.Failures,
			Requests: res.Last.Requests, Errors: res.Last.Errors, P99NS: p99,
		})
		return res
	}
	if res.Failures == res.Polls {
		fmt.Fprintf(w, "all %d polls failed; nothing watched\n", res.Polls)
	} else {
		fmt.Fprintf(w, "watched %d polls (%d failed): %d requests, %d errors, p99 %v since start\n",
			res.Polls, res.Failures, res.Last.Requests, res.Last.Errors, time.Duration(p99))
	}
	return res
}

// burnCol renders one burn value, "-" when the server exposes no such SLO.
func burnCol(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
