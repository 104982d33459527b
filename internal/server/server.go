// Package server is the transport half of the join-advisor service: an
// http.Handler (and its serve/drain lifecycle) that answers the paper's
// TR/ROR decisions over the statistics registry. internal/registry caches
// per-dataset sufficient statistics behind once-cells and, per rule, the
// encoded answer, so a warm query is a registry hit and a memo load; a
// registry miss pays one generation plus CollectStats scan and every later
// request for that key is served from cache. cmd/advisord wires this
// package to a listener, signals, and a run directory; cmd/loadgen's HTTP
// mode drives it at service speed.
//
// Observability follows the repo's conventions: per-endpoint request
// latency lands in one cumulative histogram per endpoint (live on /metrics,
// flushed as histograms.json so `report latency` works unchanged on server
// runs), and each request is logged as an "http_request" event when the
// server is given a run dir's event log.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
)

// endpoints are the instrumented routes, each with its own latency series,
// sorted so successive /metrics scrapes line up.
var endpoints = []string{"datasets", "decide", "healthz", "metrics", "readyz"}

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
	// availability budget-burn gauge on /metrics.
	SLOAvailability float64
	// SLOLatencyObjective and SLOLatencyTarget define the latency SLO:
	// SLOLatencyTarget of requests (e.g. 0.99) must finish within
	// SLOLatencyObjective (e.g. 1ms). Either zero disables the latency
	// budget-burn gauge.
	SLOLatencyObjective time.Duration
	SLOLatencyTarget    float64
}

// Server answers advisor decisions over HTTP. Build with New, expose via
// Handler (tests) or Serve (daemons), stop with Shutdown.
type Server struct {
	cfg Config
	reg *registry.Registry
	// catalog maps each resolvable dataset name to itself, so a query's
	// dataset is the catalog's string, not one made from the body.
	catalog map[string]string
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
	// hists holds one cumulative latency histogram per endpoint.
	hists map[string]*obs.Histogram
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
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		catalog:  make(map[string]string),
		advTR:    &core.Advisor{Rule: core.TRRule},
		advROR:   &core.Advisor{Rule: core.RORRule},
		hists:    make(map[string]*obs.Histogram, len(endpoints)),
		idPrefix: requestIDPrefix(),
	}
	s.buildVersion, s.buildCommit = obs.BuildIdentity()
	for _, name := range registry.Names() {
		s.catalog[name] = name
	}
	for _, ep := range endpoints {
		s.hists[ep] = obs.NewHistogram(cfg.Precision)
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

// snapshots takes one snapshot per endpoint (in endpoints order) and their
// run-level merge. Both come from the same copies, so the merge's count is
// exactly the sum of the endpoints' counts.
func (s *Server) snapshots() ([]obs.HistogramSnapshot, obs.HistogramSnapshot) {
	snaps := make([]obs.HistogramSnapshot, len(endpoints))
	var total obs.HistogramSnapshot
	for i, ep := range endpoints {
		snaps[i] = s.hists[ep].Snapshot()
		// Same precision everywhere by construction; Merge cannot fail.
		_ = total.Merge(snaps[i])
	}
	if total.Count == 0 {
		// Merge skips empty snapshots, so adopt the histograms' (clamped)
		// precision: an idle server still renders a well-formed series.
		total.Precision = snaps[0].Precision
	}
	return snaps, total
}

// Histograms snapshots the per-endpoint latency series plus their run-level
// merge under the loadgen-compatible names, ready for
// obs.RunDir.WriteHistograms. Endpoints that served nothing are omitted;
// the merge is always present (empty runs still flush a well-formed
// artifact).
func (s *Server) Histograms() map[string]obs.HistogramSnapshot {
	snaps, total := s.snapshots()
	out := make(map[string]obs.HistogramSnapshot, len(snaps)+1)
	for i, snap := range snaps {
		if snap.Count > 0 {
			out[obs.LatencyHist+"."+endpoints[i]] = snap
		}
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
// request/error counters, the request ID, the trace context and server span
// (when a Sampler is configured), slow-request capture, and the request-log
// event.
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
		if rec.status >= 400 {
			s.errors.Add(1)
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

// requestError is a decide request refused before any query is answered:
// the response status and the ErrorResponse message.
type requestError struct {
	status int
	msg    string
}

// refuse builds the requestError for a refused decide request.
func refuse(status int, format string, args ...any) *requestError {
	return &requestError{status: status, msg: fmt.Sprintf(format, args...)}
}

// decodeRequest parses a decide body and validates the whole batch: one
// JSON object with nothing but whitespace after it, a schema version this
// server speaks, 1..MaxBatch queries, and per query a known dataset, a scale
// in (0, 1] and a rule, with omitted fields taking the server defaults. It
// returns the resolved queries, or the status and message to refuse the
// request with. It reads the catalog, never the registry, so refusing a body
// costs no generation.
func (s *Server) decodeRequest(body []byte) ([]resolvedQuery, *requestError) {
	var req wireRequest
	d := decoder{body: body}
	if err := d.request(&req, s.cfg.MaxBatch); err != nil {
		return nil, refuse(http.StatusBadRequest, "parse request: %v", err)
	}
	if req.v < 0 || req.v > RequestSchemaVersion {
		return nil, refuse(http.StatusBadRequest,
			"request schema v%d not understood (this server speaks up to v%d)", req.v, RequestSchemaVersion)
	}
	if req.n == 0 {
		return nil, refuse(http.StatusBadRequest, "empty batch: requests must carry 1..%d queries", s.cfg.MaxBatch)
	}
	if req.n > s.cfg.MaxBatch {
		return nil, refuse(http.StatusBadRequest, "batch of %d queries exceeds the %d cap", req.n, s.cfg.MaxBatch)
	}
	resolved := make([]resolvedQuery, req.n)
	for i, q := range req.slots[:req.n] {
		name, ok := s.catalog[string(text(q.dataset))]
		if !ok {
			return nil, refuse(http.StatusNotFound, "unknown dataset %q (GET /v1/datasets lists the catalog)", text(q.dataset))
		}
		rq := resolvedQuery{dataset: name, scale: q.scale, seed: q.seed}
		if rq.scale == 0 {
			rq.scale = s.cfg.Scale
		}
		if rq.scale <= 0 || rq.scale > 1 {
			return nil, refuse(http.StatusBadRequest, "scale %v outside (0, 1] for dataset %q", rq.scale, name)
		}
		if rq.seed == 0 {
			rq.seed = s.cfg.Seed
		}
		adv, err := s.advisorFor(q.rule)
		if err != nil {
			return nil, refuse(http.StatusBadRequest, "%v", err)
		}
		rq.adv = adv
		resolved[i] = rq
	}
	return resolved, nil
}

// decideHead and decideTail frame every 200 decide body: with the Results'
// encodings joined by commas between them, the body is byte for byte what
// json.Encoder writes for a DecideResponse.
var decideHead = `{"v":` + strconv.Itoa(RequestSchemaVersion) + `,"results":[`

const decideTail = "]}\n"

// handleDecide answers a batch of decisions. The whole batch is validated
// before any query is answered, so a malformed tuple can never leave a
// half-answered batch. Each answer is the registry entry's memoized Result
// encoding for the query's rule, so after a key's first decide a query
// costs a registry hit and a memo load, and the response is those bytes
// joined into one buffer and written once.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if s.decideHook != nil {
		s.decideHook()
	}
	span := requestSpan(r)
	decode := span.Child("decode")
	var queries []resolvedQuery
	var rerr *requestError
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		rerr = refuse(http.StatusBadRequest, "parse request: %v", err)
	} else {
		queries, rerr = s.decodeRequest(body)
	}
	decode.End()
	if rerr != nil {
		s.fail(w, rerr.status, "%s", rerr.msg)
		return
	}
	if rec, ok := w.(*statusRecorder); ok {
		rec.queries = len(queries)
	}

	frags := make([][]byte, len(queries))
	size := len(decideHead) + len(queries) - 1 + len(decideTail)
	for i, q := range queries {
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
		// Invariant: a Result is a pure function of (registry key, rule).
		// The key fixes the statistics and the echoed dataset, scale and
		// seed, and the server's two advisors carry nothing but their Rule.
		// That is what lets the entry keep one encoded answer per rule. A
		// per-request threshold, or a response field that is not a function
		// of the key, would break it.
		frags[i], err = e.Answer(q.adv.Rule, func() ([]byte, error) { return encodeResult(q, e.Stats) })
		dspan.End()
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "decide %s: %v", q.dataset, err)
			return
		}
		size += len(frags[i])
	}

	write := span.Child("write")
	buf := make([]byte, 0, size)
	buf = append(buf, decideHead...)
	for i, f := range frags {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f...)
	}
	buf = append(buf, decideTail...)
	w.Header().Set("Content-Type", "application/json")
	// A failed Write is a connection failure; nothing useful remains to
	// tell the client.
	_, _ = w.Write(buf)
	write.End()
}

// encodeResult decides q on stats and returns its Result's JSON encoding.
func encodeResult(q resolvedQuery, stats *core.DatasetStats) ([]byte, error) {
	decisions, err := q.adv.DecideFromStats(stats)
	if err != nil {
		return nil, err
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
	return json.Marshal(res)
}

// advisorFor maps a rule token to the shared advisor (nil or "" = default).
// No rune outside ASCII folds or upper-cases to T, R or O, so matching by
// bytes.EqualFold is matching by strings.ToUpper.
func (s *Server) advisorFor(tok []byte) (*core.Advisor, error) {
	rule := text(tok)
	switch {
	case len(rule) == 0:
		if s.cfg.Rule == core.RORRule {
			return s.advROR, nil
		}
		return s.advTR, nil
	case bytes.EqualFold(rule, []byte("TR")):
		return s.advTR, nil
	case bytes.EqualFold(rule, []byte("ROR")):
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
