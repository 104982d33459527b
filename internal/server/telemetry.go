package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hamlet/internal/obs"
)

// This file is the live-telemetry half of the server: the continuous view of
// a running advisord, where server.go's artifacts (histograms.json,
// metrics.json) are the post-mortem view. Three surfaces:
//
//   - GET /metrics — Prometheus text exposition, cumulative since start:
//     request/error counters, the in-flight gauge, latency buckets
//     (histogram) per endpoint and merged, the SLO budget spent, plus every
//     metric on the obs.Default registry (Registry.WriteProm, the renderer
//     behind the CLIs' -http /metrics).
//   - X-Request-ID — every instrumented request carries one: accepted from
//     the client when well formed (1..128 visible ASCII bytes), generated
//     otherwise, echoed in the response, and threaded through the
//     http_request event so a log line, a trace, and a client retry all
//     name the same request.
//   - /debug/slow — a ring of the most recent slow-request exemplars
//     (requests at or beyond Config.Slow), each carrying its request ID, so
//     a tail spike on the scrape surface resolves to attributable requests.

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

// handleMetrics serves the Prometheus text exposition. Every series is
// cumulative since process start: a rate, an interval's quantiles or an
// interval's burn is the difference of two scrapes, which `report watch`
// takes on every poll. Latency is one histogram name,
// advisord_request_duration_seconds: one series per endpoint plus their
// unlabeled run-level merge, all rendered from one snapshot per endpoint, so
// the merge's _count is exactly the sum of the endpoints' _counts.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)
	requests, errors := s.Stats()
	snaps, total := s.snapshots()

	p.Type("advisord_requests_total", "counter", "Instrumented requests served since process start.")
	p.Int("advisord_requests_total", nil, requests)
	p.Type("advisord_request_errors_total", "counter", "Requests answered with a 4xx or 5xx status.")
	p.Int("advisord_request_errors_total", nil, errors)
	p.Type("advisord_in_flight_requests", "gauge", "Requests currently being handled.")
	p.Int("advisord_in_flight_requests", nil, s.inFlight.Load())
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

	// Error-budget burn since start: the whole-run "budget spent" that
	// `report slo` prints. 1.0 spends the budget exactly; `report watch`
	// derives each poll interval's burn from the targets exposed here.
	if s.cfg.SLOAvailability > 0 || (s.cfg.SLOLatencyObjective > 0 && s.cfg.SLOLatencyTarget > 0) {
		p.Type("advisord_slo_error_budget_burn", "gauge",
			"Error-budget spent per SLO since process start: bad fraction over (1 - target).")
	}
	if target := s.cfg.SLOAvailability; target > 0 {
		p.Value("advisord_slo_error_budget_burn", []string{"slo", "availability"}, obs.BudgetBurn(errors, requests, target))
		p.Type("advisord_slo_availability_target", "gauge", "Configured availability SLO target.")
		p.Value("advisord_slo_availability_target", nil, target)
	}
	if obj, target := s.cfg.SLOLatencyObjective, s.cfg.SLOLatencyTarget; obj > 0 && target > 0 {
		bad := total.Count - total.CountAtOrBelow(obj.Nanoseconds())
		p.Value("advisord_slo_error_budget_burn", []string{"slo", "latency"}, obs.BudgetBurn(bad, total.Count, target))
		p.Type("advisord_slo_latency_objective_seconds", "gauge", "Configured latency SLO objective.")
		p.Value("advisord_slo_latency_objective_seconds", nil, obj.Seconds())
		p.Type("advisord_slo_latency_target", "gauge", "Configured fraction of requests required within the objective.")
		p.Value("advisord_slo_latency_target", nil, target)
	}

	p.Type("advisord_request_duration_seconds", "histogram",
		"Request latency since process start: cumulative HDR buckets per endpoint and merged.")
	for i, ep := range endpoints {
		p.Histogram("advisord_request_duration_seconds", []string{"endpoint", ep}, snaps[i], 1e-9)
	}
	p.Histogram("advisord_request_duration_seconds", nil, total, 1e-9)

	// Every metric on the process-wide registry, under hamlet_<name>. A
	// write error means the scraper hung up; nothing is left to answer.
	obs.Default.WriteProm(p)
}
