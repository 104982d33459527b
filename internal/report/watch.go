package report

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// This file is the live half of the latency read side: where latency.go
// renders a finished run's histograms.json, `report watch` polls a running
// advisord's /metrics exposition and renders a rolling rate/quantile view
// with deltas and the server's SLO burn. It is a view, not a gate: `report
// latency base new` gates a regression between runs and `report slo` gates
// a run against an objective. The exposition parser is the read complement
// of internal/obs's PromWriter.

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

// WatchSample is one poll's view of the served-latency surface.
type WatchSample struct {
	// Requests and Errors are cumulative counts at poll time.
	Requests, Errors int64
	// P50NS and P99NS are the rolling-window latency quantiles in
	// nanoseconds.
	P50NS, P99NS int64
	// AvailBurn and LatBurn are the server's rolling SLO error-budget burn
	// rates (advisord_slo_error_budget_burn), valid only when HasBurn is
	// set — the server only exposes them when started with SLO flags.
	AvailBurn, LatBurn float64
	HasBurn            bool
}

// WatchSource produces one sample per call. An error marks the poll failed;
// the watcher reports it and keeps polling.
type WatchSource func() (WatchSample, error)

// MetricsSource polls a live advisord /metrics endpoint. The run-level
// (endpoint-unlabeled) latency summary feeds the quantiles, so the view
// matches what the server is doing right now, not since it started.
func MetricsSource(client *http.Client, url string) WatchSource {
	if client == nil {
		client = http.DefaultClient
	}
	return func() (WatchSample, error) {
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
		var out WatchSample
		var sawRequests bool
		for _, s := range samples {
			switch s.Name {
			case "advisord_requests_total":
				out.Requests, sawRequests = int64(s.Value), true
			case "advisord_request_errors_total":
				out.Errors = int64(s.Value)
			case "advisord_request_latency_seconds":
				if s.Label("endpoint") != "" {
					continue // per-endpoint series; the run-level one is unlabeled
				}
				switch s.Label("quantile") {
				case "0.5":
					out.P50NS = int64(s.Value * 1e9)
				case "0.99":
					out.P99NS = int64(s.Value * 1e9)
				}
			case "advisord_slo_error_budget_burn":
				out.HasBurn = true
				switch s.Label("slo") {
				case "availability":
					out.AvailBurn = s.Value
				case "latency":
					out.LatBurn = s.Value
				}
			}
		}
		if !sawRequests {
			return WatchSample{}, fmt.Errorf("report: %s is not an advisord exposition (no advisord_requests_total)", url)
		}
		return out, nil
	}
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
	// RatePerSec is nil on the first poll (no delta yet).
	RatePerSec *float64 `json:"rate_per_sec,omitempty"`
	Errors     int64    `json:"errors"`
	P50NS      int64    `json:"p50_ns"`
	P99NS      int64    `json:"p99_ns"`
	// BurnAvailability and BurnLatency mirror the server's SLO burn gauges
	// (nil when the server exposes none).
	BurnAvailability *float64 `json:"burn_availability,omitempty"`
	BurnLatency      *float64 `json:"burn_latency,omitempty"`
}

// WatchSummaryJSON is the final row of `watch -format json` output.
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

// Watch polls src and renders one line per poll: cumulative requests, the
// rate and error delta since the previous poll, the current p50/p99, and
// the SLO burn rates when the server exposes them.
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
	var prev WatchSample
	var prevAt time.Time
	var havePrev bool
	for i := 0; opt.Polls <= 0 || i < opt.Polls; i++ {
		if i > 0 && opt.Interval > 0 {
			time.Sleep(opt.Interval)
		}
		res.Polls++
		now := time.Now()
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
		var rateVal *float64
		if havePrev {
			if dt := now.Sub(prevAt); dt > 0 && s.Requests >= prev.Requests {
				v := float64(s.Requests-prev.Requests) / dt.Seconds()
				rateVal = &v
			}
		}
		if jsonOut {
			row := WatchPollJSON{
				Poll: i + 1, Requests: s.Requests, RatePerSec: rateVal,
				Errors: s.Errors, P50NS: s.P50NS, P99NS: s.P99NS,
			}
			if s.HasBurn {
				ab, lb := s.AvailBurn, s.LatBurn
				row.BurnAvailability, row.BurnLatency = &ab, &lb
			}
			_ = enc.Encode(row)
		} else {
			rate := "-"
			if rateVal != nil {
				rate = fmt.Sprintf("%.1f", *rateVal)
			}
			errDelta := ""
			if havePrev {
				if d := s.Errors - prev.Errors; d > 0 {
					errDelta = fmt.Sprintf(" (+%d)", d)
				}
			}
			status := ""
			if s.HasBurn {
				status = fmt.Sprintf("  burn %.2f/%.2f", s.AvailBurn, s.LatBurn)
			}
			fmt.Fprintf(w, "%6d  %10d  %10s  %8s  %10v  %10v%s\n",
				i+1, s.Requests, rate,
				strconv.FormatInt(s.Errors, 10)+errDelta,
				time.Duration(s.P50NS), time.Duration(s.P99NS), status)
		}
		res.Last = s
		prev, prevAt, havePrev = s, now, true
	}
	if jsonOut {
		_ = enc.Encode(WatchSummaryJSON{
			Summary: true, Polls: res.Polls, Failures: res.Failures,
			Requests: res.Last.Requests, Errors: res.Last.Errors,
			P99NS: res.Last.P99NS,
		})
		return res
	}
	if res.Failures == res.Polls {
		fmt.Fprintf(w, "all %d polls failed; nothing watched\n", res.Polls)
	} else {
		fmt.Fprintf(w, "watched %d polls (%d failed): %d requests, %d errors, p99 %v\n",
			res.Polls, res.Failures, res.Last.Requests, res.Last.Errors, time.Duration(res.Last.P99NS))
	}
	return res
}
