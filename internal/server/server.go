// Package server is the transport half of the join-advisor service: an
// http.Handler (and its serve/drain lifecycle) that answers the paper's
// TR/ROR decisions over the statistics registry. internal/registry caches
// per-dataset sufficient statistics behind once-cells, so a request is pure
// arithmetic on the hot path; a registry miss pays one generation plus
// CollectStats scan and every later request for that key is served from
// cache. cmd/advisord wires this package to a listener, signals, and a run
// directory; cmd/loadgen's HTTP mode drives it at service speed.
//
// Observability follows the repo's conventions: per-endpoint request
// latency lands in the server's own windowed histograms (live on /metrics,
// flushed as histograms.json so `report latency` works unchanged on server
// runs), and each request is logged as an "http_request" event when the
// server is given a run dir's event log.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
)

// endpoints are the instrumented routes, each with its own latency series.
var endpoints = []string{"decide", "datasets", "healthz", "readyz", "metrics"}

// Defaults for Config's zero values.
const (
	// DefaultMaxBatch caps queries per decide request.
	DefaultMaxBatch = 1024
	// DefaultMaxBody caps the decide request body in bytes.
	DefaultMaxBody = 1 << 20
	// DefaultScale is the generation scale for queries that omit one.
	DefaultScale = 0.1
	// DefaultSeed is the generation seed for queries that omit one.
	DefaultSeed = 1
)

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// Scale is the default mimic scale for queries that omit one
	// (0 = DefaultScale).
	Scale float64
	// Seed is the default generation seed for queries that omit one
	// (0 = DefaultSeed).
	Seed uint64
	// Rule is the default decision rule for queries that omit one.
	Rule core.Rule
	// Precision is the latency histograms' sub-bucket bits
	// (0 = obs.DefaultPrecision).
	Precision int
	// Events, when set, receives one "http_request" event per request —
	// the request log. A nil log no-ops (the obs convention).
	Events *obs.EventLog
	// MaxBatch caps queries per decide request (0 = DefaultMaxBatch).
	MaxBatch int
	// MaxBody caps the decide request body in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// Registry, when set, replaces the server-owned registry (tests,
	// pre-warmed processes).
	Registry *registry.Registry
	// Window is the rolling-metrics rotation interval
	// (0 = obs.DefaultWindow). /metrics summaries and rates cover the last
	// obs.DefaultWindows windows of this length.
	Window time.Duration
	// Slow is the slow-request threshold: a request at or beyond it is
	// logged, counted, and retained as an exemplar on /debug/slow.
	// 0 disables slow-request capture.
	Slow time.Duration
	// SlowLog, when set, receives one line per slow request.
	SlowLog io.Writer
	// Sampler, when set, enables distributed tracing: inbound traceparent
	// headers are adopted (minted otherwise), every instrumented request
	// records a span tree, and the sampler's tail decision picks which trees
	// are persisted. Nil disables tracing entirely (the obs convention).
	Sampler *obs.Sampler
	// Traces, when set, receives the kept traces (a run dir's
	// obs.RunDir.Traces()). Nil keeps sampling decisions but drops the
	// records — useful only in tests.
	Traces *obs.TraceLog
	// SLOAvailability is the availability SLO target in (0, 1), e.g. 0.999
	// = "99.9% of requests answer without a 4xx/5xx". 0 disables the
	// availability burn-rate gauge on /metrics.
	SLOAvailability float64
	// SLOLatencyObjective and SLOLatencyTarget define the latency SLO:
	// SLOLatencyTarget of requests (e.g. 0.99) must finish within
	// SLOLatencyObjective (e.g. 1ms). Either zero disables the latency
	// burn-rate gauge.
	SLOLatencyObjective time.Duration
	SLOLatencyTarget    float64
}

// Server answers advisor decisions over HTTP. Build with New, expose via
// Handler (tests) or Serve (daemons), stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *registry.Registry
	known map[string]bool
	// advTR and advROR are the two rule configurations, shared across
	// requests (Advisors are immutable here).
	advTR, advROR *core.Advisor
	mux           *http.ServeMux
	httpSrv       *http.Server
	// ready flips true after Preload and false at Shutdown; readyz serves
	// it.
	ready atomic.Bool
	// requests and errors count every instrumented request and the 4xx/5xx
	// subset.
	requests, errors atomic.Int64
	// inFlight gauges requests currently inside a handler.
	inFlight atomic.Int64
	hists    map[string]*obs.WindowedHistogram
	// wreq and werr back the rolling request/error rates on /metrics.
	wreq, werr *obs.WindowedCounter
	// idPrefix + idSeq mint X-Request-IDs for requests arriving without one.
	idPrefix string
	idSeq    atomic.Uint64
	// slow retains the most recent slow-request exemplars (/debug/slow).
	slow slowRing
	// traces counts tail-sampled traces persisted to traces.jsonl.
	traces atomic.Int64
	// buildVersion and buildCommit label the advisord_build_info gauge.
	buildVersion, buildCommit string
	// decideHook, when set (tests only), runs at the top of the decide
	// handler — the seam the graceful-shutdown drain test blocks on.
	decideHook func()
}

// New builds a server. The catalog of resolvable datasets is fixed at
// construction (the registry's mimic universe).
func New(cfg Config) *Server {
	if cfg.Scale == 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.Precision == 0 {
		cfg.Precision = obs.DefaultPrecision
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Registry == nil {
		cfg.Registry = registry.New()
	}
	if cfg.Window == 0 {
		cfg.Window = obs.DefaultWindow
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		known:    make(map[string]bool),
		advTR:    &core.Advisor{Rule: core.TRRule},
		advROR:   &core.Advisor{Rule: core.RORRule},
		hists:    make(map[string]*obs.WindowedHistogram, len(endpoints)),
		wreq:     obs.NewWindowedCounter(cfg.Window, obs.DefaultWindows),
		werr:     obs.NewWindowedCounter(cfg.Window, obs.DefaultWindows),
		idPrefix: requestIDPrefix(),
	}
	s.buildVersion, s.buildCommit = obs.BuildIdentity()
	for _, name := range registry.Names() {
		s.known[name] = true
	}
	for _, ep := range endpoints {
		s.hists[ep] = obs.NewWindowedHistogram(cfg.Precision, cfg.Window, obs.DefaultWindows)
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v1/decide", s.instrument("decide", s.handleDecide))
	mux.Handle("GET /v1/datasets", s.instrument("datasets", s.handleDatasets))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReady))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/slow", s.handleSlow)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	s.httpSrv = &http.Server{Handler: mux}
	return s
}

// Handler returns the server's routing handler (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the backing statistics registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Preload resolves the named datasets at the server's default scale and
// seed — paying generation and the statistics scan before traffic arrives —
// then marks the server ready. Call with no names to mark ready without
// warming anything.
func (s *Server) Preload(names ...string) error {
	for _, name := range names {
		if _, err := s.reg.Get(name, s.cfg.Scale, s.cfg.Seed); err != nil {
			return fmt.Errorf("server: preload %s: %w", name, err)
		}
	}
	s.ready.Store(true)
	return nil
}

// Serve accepts connections on ln until Shutdown. A shutdown-initiated stop
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: readiness drops immediately (load balancers
// stop routing), the listener closes, and in-flight requests run to
// completion or the context deadline, whichever first. The error is
// http.Server.Shutdown's (ctx expiry when requests did not drain in time).
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	return s.httpSrv.Shutdown(ctx)
}

// Stats reports the instrumented request count and its 4xx/5xx subset.
func (s *Server) Stats() (requests, errors int64) {
	return s.requests.Load(), s.errors.Load()
}

// Histograms snapshots the per-endpoint latency series plus their run-level
// merge under the loadgen-compatible names, ready for
// obs.RunDir.WriteHistograms. Endpoints that served nothing are omitted;
// the merge is always present (empty runs still flush a well-formed
// artifact).
func (s *Server) Histograms() map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot, len(s.hists)+1)
	var total obs.HistogramSnapshot
	for ep, h := range s.hists {
		snap := h.Total()
		if snap.Count == 0 {
			continue
		}
		out[obs.LatencyHist+"."+ep] = snap
		// Same precision everywhere by construction; Merge cannot fail.
		_ = total.Merge(snap)
	}
	if total.Count == 0 {
		total.Precision = s.cfg.Precision
	}
	out[obs.LatencyHist] = total
	return out
}

// statusRecorder captures the response status (and, for decide, the batch
// size) for the instrumentation wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	queries int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// RequestIDHeader carries the request ID on requests and responses: a
// well-formed inbound value (see requestID) is adopted verbatim, any other
// is replaced by one minted server-side, and either way the response
// echoes it.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen caps an adopted inbound request ID. The ID is echoed,
// logged, traced and retained in the /debug/slow ring, so an unbounded one
// would let a client park up to the header limit (1 MB) per slow request.
const maxRequestIDLen = 128

// requestID returns the request's inbound ID when it is 1..maxRequestIDLen
// bytes of visible ASCII (0x21-0x7e), else a freshly minted one.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > maxRequestIDLen {
		return s.nextRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return s.nextRequestID()
		}
	}
	return id
}

// instrument wraps a handler with the per-endpoint latency histogram, the
// request/error counters and rolling rates, the request ID, the trace
// context and server span (when a Sampler is configured), slow-request
// capture, and the request-log event.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.hists[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set(RequestIDHeader, id)
		st := s.startTrace(w, r, endpoint)
		if st.span != nil {
			r = r.WithContext(withSpan(r.Context(), st.span))
		}
		s.inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.inFlight.Add(-1)
		hist.Observe(elapsed.Nanoseconds())
		s.requests.Add(1)
		s.wreq.Inc()
		if rec.status >= 400 {
			s.errors.Add(1)
			s.werr.Inc()
		}
		s.finishTrace(st, id, elapsed, rec.status)
		if s.cfg.Slow > 0 && elapsed >= s.cfg.Slow {
			s.recordSlow(SlowRequest{
				ID:         id,
				TraceID:    st.traceID(),
				Endpoint:   endpoint,
				Method:     r.Method,
				Path:       r.URL.Path,
				Status:     rec.status,
				Queries:    rec.queries,
				DurationNS: elapsed.Nanoseconds(),
				Time:       start.UTC(),
			})
		}
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
		}
		if rec.queries > 0 {
			attrs = append(attrs, slog.Int("queries", rec.queries))
		}
		if tid := st.traceID(); tid != "" {
			attrs = append(attrs, slog.String("trace_id", tid))
		}
		s.cfg.Events.Emit("http_request", attrs...)
	})
}

// fail writes an ErrorResponse with the given status.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{V: RequestSchemaVersion, Error: fmt.Sprintf(format, args...)})
}

// resolvedQuery is one validated decide query.
type resolvedQuery struct {
	dataset string
	scale   float64
	seed    uint64
	adv     *core.Advisor
}

// handleDecide answers a batch of decisions. Validation is two-phase — the
// whole batch is checked before any query is answered, so a malformed tuple
// can never leave a half-answered batch — and the cached-statistics path
// means the per-query cost after the registry is warm is O(#attribute
// tables) arithmetic.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if s.decideHook != nil {
		s.decideHook()
	}
	span := requestSpan(r)
	decode := span.Child("decode")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req DecideRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		decode.End()
		s.fail(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if req.V < 0 || req.V > RequestSchemaVersion {
		decode.End()
		s.fail(w, http.StatusBadRequest,
			"request schema v%d not understood (this server speaks up to v%d)", req.V, RequestSchemaVersion)
		return
	}
	if len(req.Requests) == 0 {
		decode.End()
		s.fail(w, http.StatusBadRequest, "empty batch: requests must carry 1..%d queries", s.cfg.MaxBatch)
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		decode.End()
		s.fail(w, http.StatusBadRequest, "batch of %d queries exceeds the %d cap", len(req.Requests), s.cfg.MaxBatch)
		return
	}
	if rec, ok := w.(*statusRecorder); ok {
		rec.queries = len(req.Requests)
	}

	resolved := make([]resolvedQuery, len(req.Requests))
	for i, q := range req.Requests {
		if !s.known[q.Dataset] {
			decode.End()
			s.fail(w, http.StatusNotFound, "unknown dataset %q (GET /v1/datasets lists the catalog)", q.Dataset)
			return
		}
		rq := resolvedQuery{dataset: q.Dataset, scale: q.Scale, seed: q.Seed}
		if rq.scale == 0 {
			rq.scale = s.cfg.Scale
		}
		if rq.scale <= 0 || rq.scale > 1 {
			decode.End()
			s.fail(w, http.StatusBadRequest, "scale %v outside (0, 1] for dataset %q", rq.scale, q.Dataset)
			return
		}
		if rq.seed == 0 {
			rq.seed = s.cfg.Seed
		}
		adv, err := s.advisorFor(q.Rule)
		if err != nil {
			decode.End()
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		rq.adv = adv
		resolved[i] = rq
	}
	decode.End()

	results := make([]Result, len(resolved))
	for i, q := range resolved {
		// The name concat is guarded so the tracing-off hot path never pays
		// the allocation (Child on nil would skip it, but after the concat).
		var dspan *obs.Span
		if span != nil {
			dspan = span.Child("decide(" + q.dataset + ")")
		}
		// A miss generates the dataset and collects its statistics exactly
		// once (the registry's once-cell); every other request for the same
		// key — including the rest of this batch — waits on or reuses it.
		e, err := s.reg.Get(q.dataset, q.scale, q.seed)
		if err != nil {
			dspan.End()
			s.fail(w, http.StatusInternalServerError, "resolve %s: %v", q.dataset, err)
			return
		}
		decisions, err := q.adv.DecideFromStats(e.Stats)
		dspan.End()
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "decide %s: %v", q.dataset, err)
			return
		}
		res := Result{
			Dataset:   q.dataset,
			Scale:     q.scale,
			Seed:      q.seed,
			Rule:      q.adv.Rule.String(),
			Decisions: make([]Decision, len(decisions)),
		}
		for j, d := range decisions {
			res.Decisions[j] = decisionFromCore(d)
		}
		results[i] = res
	}
	writeJSON(w, http.StatusOK, DecideResponse{V: RequestSchemaVersion, Results: results})
}

// advisorFor maps a wire rule name to the shared advisor ("" = default).
func (s *Server) advisorFor(rule string) (*core.Advisor, error) {
	switch strings.ToUpper(rule) {
	case "":
		if s.cfg.Rule == core.RORRule {
			return s.advROR, nil
		}
		return s.advTR, nil
	case "TR":
		return s.advTR, nil
	case "ROR":
		return s.advROR, nil
	default:
		return nil, fmt.Errorf("unknown rule %q (want TR or ROR)", rule)
	}
}

// handleDatasets enumerates the catalog and the registry's resolved keys.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	keys := s.reg.Keys()
	loaded := make([]LoadedDataset, len(keys))
	for i, k := range keys {
		loaded[i] = LoadedDataset{Dataset: k.Name, Scale: k.Scale, Seed: k.Seed}
	}
	writeJSON(w, http.StatusOK, DatasetsResponse{
		V:         RequestSchemaVersion,
		Available: registry.Names(),
		Loaded:    loaded,
	})
}

// handleHealth reports liveness: the process serves.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady reports readiness: preloading finished and the server is not
// draining.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past WriteHeader are connection failures; nothing
	// useful remains to tell the client.
	_ = json.NewEncoder(w).Encode(v)
}
