package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"hamlet/internal/obs"
)

// This file is the live-telemetry half of the server: the continuous view of
// a running advisord, where server.go's artifacts (histograms.json,
// metrics.json) are the post-mortem view. Three surfaces:
//
//   - GET /metrics — Prometheus text exposition: cumulative request/error
//     counters, the in-flight gauge, rolling request/error rates, windowed
//     latency quantiles (summary) and cumulative latency buckets (histogram)
//     per endpoint, plus every metric on the obs.Default registry
//     (Registry.WriteProm, the renderer behind the CLIs' -http /metrics).
//   - X-Request-ID — every instrumented request carries one: accepted from
//     the client when well formed (1..128 visible ASCII bytes), generated
//     otherwise, echoed in the response, and threaded through the
//     http_request event so a log line, a trace, and a client retry all
//     name the same request.
//   - /debug/slow — a ring of the most recent slow-request exemplars
//     (requests at or beyond Config.Slow), each carrying its request ID, so
//     a tail spike on the scrape surface resolves to attributable requests.

// Exposed quantiles of the rolling latency summaries.
var metricsQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// slowRingDepth caps the /debug/slow exemplar buffer.
const slowRingDepth = 64

// requestIDPrefix returns the per-process random prefix of generated request
// IDs, so IDs from different replicas never collide.
func requestIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to refuse traffic: fall back to
		// a time-based prefix.
		return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
	}
	return hex.EncodeToString(b[:])
}

// nextRequestID mints an ID for a request that arrived without one:
// "<process-prefix>-<sequence>".
func (s *Server) nextRequestID() string {
	return s.idPrefix + "-" + strconv.FormatUint(s.idSeq.Add(1), 10)
}

// SlowRequest is one slow-request exemplar: the identifying tuple of a
// request whose latency met or exceeded the server's slow threshold.
type SlowRequest struct {
	// ID is the request's X-Request-ID (inbound or generated).
	ID string `json:"request_id"`
	// TraceID is the request's distributed trace ID (empty with tracing
	// off). Slow requests always pass the tail sampler, so the exemplar
	// links directly to its persisted trace in traces.jsonl.
	TraceID string `json:"trace_id,omitempty"`
	// Endpoint is the instrumented route name ("decide", ...).
	Endpoint string `json:"endpoint"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Status   int    `json:"status"`
	// Queries is the decide batch size (0 elsewhere).
	Queries int `json:"queries,omitempty"`
	// DurationNS is the measured handler latency.
	DurationNS int64 `json:"duration_ns"`
	// Time is when the request started.
	Time time.Time `json:"time"`
}

// slowRing keeps the newest slowRingDepth exemplars. The mutex is fine here:
// only requests already past the slow threshold take it.
type slowRing struct {
	mu    sync.Mutex
	buf   []SlowRequest
	next  int
	total int64
}

func (r *slowRing) add(sr SlowRequest) {
	r.mu.Lock()
	if len(r.buf) < slowRingDepth {
		r.buf = append(r.buf, sr)
	} else {
		r.buf[r.next] = sr
	}
	r.next = (r.next + 1) % slowRingDepth
	r.total++
	r.mu.Unlock()
}

// list returns the exemplars newest-first and the all-time slow count.
func (r *slowRing) list() ([]SlowRequest, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SlowRequest, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out, r.total
}

// recordSlow captures one slow request: the exemplar ring, the log line, and
// the slow counter.
func (s *Server) recordSlow(sr SlowRequest) {
	s.slow.add(sr)
	if s.cfg.SlowLog != nil {
		fmt.Fprintf(s.cfg.SlowLog, "advisord: slow request id=%s endpoint=%s status=%d duration=%v (threshold %v)\n",
			sr.ID, sr.Endpoint, sr.Status, time.Duration(sr.DurationNS), s.cfg.Slow)
	}
}

// SlowResponse is the GET /debug/slow body.
type SlowResponse struct {
	// V is the response schema version.
	V int `json:"v"`
	// ThresholdNS echoes the active slow threshold (0 = exemplars disabled).
	ThresholdNS int64 `json:"threshold_ns"`
	// Total counts every slow request since start, including ones the ring
	// has since evicted.
	Total int64 `json:"total"`
	// Slow holds the retained exemplars, newest first.
	Slow []SlowRequest `json:"slow"`
}

// handleSlow serves the slow-request exemplar ring, newest first. ?n=K
// limits the response to the K most recent exemplars.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	slow, total := s.slow.list()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "bad n=%q: want a non-negative integer", nStr)
			return
		}
		if n < len(slow) {
			slow = slow[:n]
		}
	}
	writeJSON(w, http.StatusOK, SlowResponse{
		V:           RequestSchemaVersion,
		ThresholdNS: int64(s.cfg.Slow),
		Total:       total,
		Slow:        slow,
	})
}

// handleMetrics serves the Prometheus text exposition. Naming: the summary
// advisord_request_latency_seconds carries rolling-window quantiles (the
// summary convention) with cumulative _sum/_count; the histogram
// advisord_request_duration_seconds carries the cumulative bucket
// distribution — two names because the exposition format allows one type
// per name. Run-level latency series carry no endpoint label; per-endpoint
// series add one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)

	p.Type("advisord_requests_total", "counter", "Instrumented requests served since process start.")
	p.Int("advisord_requests_total", nil, s.requests.Load())
	p.Type("advisord_request_errors_total", "counter", "Requests answered with a 4xx or 5xx status.")
	p.Int("advisord_request_errors_total", nil, s.errors.Load())
	p.Type("advisord_in_flight_requests", "gauge", "Requests currently being handled.")
	p.Int("advisord_in_flight_requests", nil, s.inFlight.Load())
	p.Type("advisord_requests_per_second", "gauge", "Rolling request rate over the histogram window ring.")
	p.Value("advisord_requests_per_second", nil, s.wreq.Rate())
	p.Type("advisord_request_errors_per_second", "gauge", "Rolling error rate over the histogram window ring.")
	p.Value("advisord_request_errors_per_second", nil, s.werr.Rate())
	p.Type("advisord_slow_requests_total", "counter", "Requests at or beyond the -slow threshold since process start.")
	_, slowTotal := s.slow.list()
	p.Int("advisord_slow_requests_total", nil, slowTotal)
	p.Type("advisord_ready", "gauge", "1 once preloading finished and the server is not draining.")
	ready := int64(0)
	if s.ready.Load() {
		ready = 1
	}
	p.Int("advisord_ready", nil, ready)
	p.Type("advisord_build_info", "gauge", "Build identity of the running binary; the value is always 1.")
	p.Int("advisord_build_info", []string{"version", s.buildVersion, "commit", s.buildCommit}, 1)
	if s.cfg.Sampler != nil {
		p.Type("advisord_traces_total", "counter", "Tail-sampled traces persisted to traces.jsonl since process start.")
		p.Int("advisord_traces_total", nil, s.traces.Load())
	}

	eps := make([]string, 0, len(s.hists))
	for ep := range s.hists {
		eps = append(eps, ep)
	}
	sort.Strings(eps)

	// Rolling quantiles per endpoint and run-level; cumulative _sum/_count.
	p.Type("advisord_request_latency_seconds", "summary",
		"Request latency: rolling-window quantiles, cumulative sum/count.")
	var winAll, cumAll obs.HistogramSnapshot
	for _, ep := range eps {
		h := s.hists[ep]
		win, cum := h.Window(0), h.Total()
		// Identical precision by construction; Merge cannot fail.
		_ = winAll.Merge(win)
		_ = cumAll.Merge(cum)
		p.Summary("advisord_request_latency_seconds", []string{"endpoint", ep}, win, cum, 1e-9, metricsQuantiles...)
	}
	p.Summary("advisord_request_latency_seconds", nil, winAll, cumAll, 1e-9, metricsQuantiles...)

	// Live SLO burn rates over the rolling window. Burn = (bad fraction) /
	// (error budget): 1.0 spends the budget exactly at the sustainable
	// rate, 14.4 exhausts a 30-day budget in 2 days (the SRE fast-burn
	// alarm). `report watch` prints these on every poll.
	if s.cfg.SLOAvailability > 0 || (s.cfg.SLOLatencyObjective > 0 && s.cfg.SLOLatencyTarget > 0) {
		p.Type("advisord_slo_error_budget_burn", "gauge",
			"Rolling-window error-budget burn rate per SLO (1.0 = sustainable).")
	}
	if target := s.cfg.SLOAvailability; target > 0 {
		burn := 0.0
		if reqRate := s.wreq.Rate(); reqRate > 0 {
			burn = (s.werr.Rate() / reqRate) / (1 - target)
		}
		p.Value("advisord_slo_error_budget_burn", []string{"slo", "availability"}, burn)
		p.Type("advisord_slo_availability_target", "gauge", "Configured availability SLO target.")
		p.Value("advisord_slo_availability_target", nil, target)
	}
	if obj, target := s.cfg.SLOLatencyObjective, s.cfg.SLOLatencyTarget; obj > 0 && target > 0 {
		burn := 0.0
		if winAll.Count > 0 {
			badFrac := 1 - float64(winAll.CountAtOrBelow(obj.Nanoseconds()))/float64(winAll.Count)
			burn = badFrac / (1 - target)
		}
		p.Value("advisord_slo_error_budget_burn", []string{"slo", "latency"}, burn)
		p.Type("advisord_slo_latency_objective_seconds", "gauge", "Configured latency SLO objective.")
		p.Value("advisord_slo_latency_objective_seconds", nil, obj.Seconds())
		p.Type("advisord_slo_latency_target", "gauge", "Configured fraction of requests required within the objective.")
		p.Value("advisord_slo_latency_target", nil, target)
	}

	// Cumulative bucket distribution per endpoint.
	p.Type("advisord_request_duration_seconds", "histogram",
		"Request latency: cumulative HDR bucket distribution.")
	for _, ep := range eps {
		p.Histogram("advisord_request_duration_seconds", []string{"endpoint", ep}, s.hists[ep].Total(), 1e-9)
	}

	p.Type("advisord_endpoint_requests_total", "counter", "Requests served per endpoint since process start.")
	for _, ep := range eps {
		p.Int("advisord_endpoint_requests_total", []string{"endpoint", ep}, s.hists[ep].Total().Count)
	}

	// Every metric on the process-wide registry, under hamlet_<name>. A
	// write error means the scraper hung up; nothing is left to answer.
	obs.Default.WriteProm(p)
}
