package server

import (
	"context"
	"net/http"
	"time"

	"hamlet/internal/obs"
)

// This file is the server half of distributed tracing. The instrumentation
// wrapper adopts an inbound W3C traceparent (or mints a fresh context and
// head-samples it), echoes the server's own context on the response, records
// the request as a span tree — server(endpoint) with, for decide, the
// children decode, decide(dataset) per batch item (the registry lookup and
// the answer-cell load) and write (the response assembly and its one Write)
// — and at request end asks the tail sampler whether the outcome (error?
// slow? head-sampled?) earns the trace a line in traces.jsonl. The span tree
// is threaded to handlers through the request context; with tracing
// disabled the context carries no span, every Child call no-ops on nil, and
// the request path allocates nothing extra.

// spanKey carries the per-request server span in the request context.
type spanKey struct{}

// withSpan returns ctx carrying sp for requestSpan to find.
func withSpan(ctx context.Context, sp *obs.Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// requestSpan returns the request's server span, or nil when tracing is off
// (every obs.Span method no-ops on nil, so handlers call through it
// unconditionally).
func requestSpan(r *http.Request) *obs.Span {
	sp, _ := r.Context().Value(spanKey{}).(*obs.Span)
	return sp
}

// traceState is the per-request tracing bookkeeping instrument threads from
// accept to the tail decision.
type traceState struct {
	tc     obs.TraceContext
	parent string // inbound caller's span ID ("" at the trace head)
	span   *obs.Span
}

// traceID returns the request's trace ID as 32 hex digits, "" when tracing
// is off (the zero traceState).
func (st traceState) traceID() string {
	if st.span == nil {
		return ""
	}
	return st.tc.TraceIDString()
}

// startTrace begins tracing one request: adopt the caller's traceparent as
// parent (deriving a fresh server span ID) or mint a head-sampled root
// context, echo the server's context on the response, and open the server
// span. Returns the zero traceState when tracing is disabled.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, endpoint string) traceState {
	if s.cfg.Sampler == nil {
		return traceState{}
	}
	var st traceState
	if in, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); err == nil {
		st.parent = in.SpanIDString()
		st.tc = in.Child()
	} else {
		tc := obs.NewTraceContext()
		st.tc = tc.WithSampled(s.cfg.Sampler.Sampled(tc))
	}
	w.Header().Set(obs.TraceparentHeader, st.tc.Traceparent())
	st.span = obs.StartSpan("server(" + endpoint + ")")
	return st
}

// finishTrace closes the request's span and applies the tail-sampling
// decision, appending a kept trace to the run's traces.jsonl.
func (s *Server) finishTrace(st traceState, requestID string, elapsed time.Duration, status int) {
	if st.span == nil {
		return
	}
	st.span.End()
	if !s.cfg.Sampler.Keep(st.tc.Sampled(), elapsed, status >= 400) {
		return
	}
	// Append errors surface nowhere better than the event log; tracing is
	// telemetry and must not fail the request.
	if err := s.cfg.Traces.Append(obs.TraceRecord{
		TraceID:      st.tc.TraceIDString(),
		SpanID:       st.tc.SpanIDString(),
		ParentSpanID: st.parent,
		Kind:         obs.TraceKindServer,
		RequestID:    requestID,
		Span:         st.span,
	}); err == nil {
		s.traces.Add(1)
	}
}
