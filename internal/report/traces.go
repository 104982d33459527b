package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hamlet/internal/obs"
)

// This file is the cross-process half of the trace read side: where trace.go
// profiles one process's span tree (trace.json), AssembleTraces joins the
// per-request sampled traces (traces.jsonl) that two processes persisted —
// loadgen's client spans and advisord's server spans — by W3C trace ID into
// merged trees. The join makes the wire visible: the gap between a client
// span and the server span nested under it is transport plus queue time,
// which neither process can measure alone.

// AssembledTrace is one distributed trace joined across run directories.
type AssembledTrace struct {
	// TraceID is the shared 128-bit trace ID (hex).
	TraceID string
	// RequestID is the request ID the halves agreed on ("" when absent).
	RequestID string
	// Root is the record whose span heads the merged tree: the client
	// record, or the first server record of a server-only trace.
	Root *obs.TraceRecord
	// Grafts are the records whose spans nest under Root's span, after its
	// own children: each server record whose parent span ID names the
	// client's span, or the other records of a server-only trace.
	Grafts []*obs.TraceRecord
	// Complete reports that a client and a server half joined: a server
	// record's parent span ID named a client record's span ID.
	Complete bool
	// SkewMS is serverStart − clientStart for a complete trace: one-way
	// transport plus server queueing plus any clock skew between the two
	// processes. Meaningless when Complete is false.
	SkewMS float64
	// NetMS is clientDuration − serverDuration for a complete trace: the
	// round trip's time outside the server handler (transport both ways
	// plus queueing). Clock-skew free — both durations are monotonic.
	NetMS float64
}

// TraceAssembly is the result of joining trace records across runs.
type TraceAssembly struct {
	// Traces holds the assembled traces ordered by root start time.
	Traces []*AssembledTrace
	// Complete counts traces with both halves joined.
	Complete int
	// ClientOnly and ServerOnly count one-sided traces — sampled on one
	// side but not kept by the other (tail policies are independent).
	ClientOnly, ServerOnly int
}

// AssembleTraces joins the trace records of the given runs by trace ID.
// Records of kind client become roots; each server record is grafted under
// the client record whose span ID its parent names. Typical use joins a
// loadgen run dir (client halves) with the advisord run dir it drove
// (server halves), but the join keys on record kind, not argument order.
func AssembleTraces(runs ...*Run) *TraceAssembly {
	byTrace := make(map[string][]*obs.TraceRecord)
	var order []string
	for _, r := range runs {
		if r == nil {
			continue
		}
		for i := range r.Traces {
			rec := &r.Traces[i]
			if rec.Span == nil || rec.TraceID == "" {
				continue
			}
			if _, ok := byTrace[rec.TraceID]; !ok {
				order = append(order, rec.TraceID)
			}
			byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
		}
	}
	asm := &TraceAssembly{}
	for _, id := range order {
		at := assembleOne(id, byTrace[id])
		switch {
		case at.Complete:
			asm.Complete++
		case at.Root.Kind == obs.TraceKindClient:
			asm.ClientOnly++
		default:
			asm.ServerOnly++
		}
		asm.Traces = append(asm.Traces, at)
	}
	sort.SliceStable(asm.Traces, func(i, j int) bool {
		return asm.Traces[i].Root.Span.Start.Before(asm.Traces[j].Root.Span.Start)
	})
	return asm
}

// assembleOne merges one trace ID's records into a tree.
func assembleOne(id string, recs []*obs.TraceRecord) *AssembledTrace {
	at := &AssembledTrace{TraceID: id}
	// The client half anchors the tree; with several client records (not a
	// shape the CLIs produce) the earliest wins and the rest are dropped.
	var client *obs.TraceRecord
	for _, rec := range recs {
		if rec.Kind != obs.TraceKindServer && (client == nil || rec.Span.Start.Before(client.Span.Start)) {
			client = rec
		}
	}
	if client != nil {
		at.Root = client
		at.RequestID = client.RequestID
	}
	for _, rec := range recs {
		if rec.Kind != obs.TraceKindServer {
			continue
		}
		if client != nil && rec.ParentSpanID == client.SpanID {
			// The wire join: the server's parent span ID is the client span
			// that carried the request, so the server tree nests under it.
			at.Grafts = append(at.Grafts, rec)
			at.Complete = true
			at.SkewMS = float64(rec.Span.Start.Sub(client.Span.Start)) / float64(time.Millisecond)
			at.NetMS = client.Span.DurationMS - rec.Span.DurationMS
			if at.RequestID == "" {
				at.RequestID = rec.RequestID
			}
		} else if at.Root == nil {
			at.Root = rec
			at.RequestID = rec.RequestID
		} else if client == nil {
			// Several server-only records: keep the first as root, graft the
			// rest beside it so nothing sampled is silently dropped.
			at.Grafts = append(at.Grafts, rec)
		}
	}
	return at
}

// Write renders the assembly: one header per trace (IDs, completeness, the
// skew and net/queue split) over the indented merged tree, with each
// grafted span's recording side tagged when it differs from the root's.
func (a *TraceAssembly) Write(w io.Writer) error {
	if len(a.Traces) == 0 {
		return fmt.Errorf("report: no sampled traces to assemble (run with tracing enabled: loadgen -trace-sample / advisord -trace-sample)")
	}
	fmt.Fprintf(w, "assembled %d trace(s): %d complete (client+server), %d client-only, %d server-only\n",
		len(a.Traces), a.Complete, a.ClientOnly, a.ServerOnly)
	for _, at := range a.Traces {
		fmt.Fprintf(w, "\ntrace %s", at.TraceID)
		if at.RequestID != "" {
			fmt.Fprintf(w, " (request %s)", at.RequestID)
		}
		if at.Complete {
			fmt.Fprintf(w, " — skew %+.2fms, net+queue %.2fms", at.SkewMS, at.NetMS)
		} else {
			fmt.Fprintf(w, " — %s half only", at.Root.Kind)
		}
		fmt.Fprintln(w)
		writeSpan(w, at.Root.Span, 1, "")
		for _, g := range at.Grafts {
			tag := ""
			if g.Kind != at.Root.Kind {
				tag = g.Kind
			}
			writeSpan(w, g.Span, 2, tag)
		}
	}
	return nil
}

// writeSpan renders one span line and recurses. A non-empty kind tags the
// span as the head of another process's half, so a merged tree reads as
// one request with the hop marked.
func writeSpan(w io.Writer, s *obs.SpanRecord, depth int, kind string) {
	fmt.Fprintf(w, "%*s%s  %.2fms", 2*depth, "", s.Name, s.DurationMS)
	if kind != "" {
		fmt.Fprintf(w, "  [%s]", kind)
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		writeSpan(w, c, depth+1, "")
	}
}
