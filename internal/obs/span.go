package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of the pipeline. Spans form a tree: Analyze
// produces roots like
//
//	analyze(Walmart) 41ms
//	├─ plan(JoinAll) 39ms [evaluations=120 features=9]
//	│  ├─ materialize 2ms [rows=21078 cells=189702]
//	│  ├─ select(forward) 35ms [evaluations=120 iterations=3]
//	│  └─ train-eval 1ms
//	└─ plan(JoinOpt) ...
//
// renderable as text (WriteText) or JSON (MarshalJSON, in the SpanRecord
// shape). Every method is a no-op on a nil receiver, so call sites never
// need to guard: untraced runs pass nil spans all the way down at the cost
// of a nil check.
//
// A span's own methods are safe for concurrent use, but the intended
// discipline is one goroutine per subtree.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	counters map[string]int64
	children []*Span
}

// StartSpan starts a new root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a nested span. On a nil receiver it returns nil, which keeps
// the whole subtree free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Adopt appends an independently started span as a child, preserving its
// own timings. CLIs use it to gather the root spans that library calls
// produce (e.g. Report.Trace per dataset) under one run-level tree for
// trace.json. A nil receiver or child no-ops.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// AdoptAll appends independently started spans as children in slice order,
// skipping nils. Parallel fan-outs (internal/pool callers) use it to attach
// per-task spans *after* the pool drains: each worker times its own span
// concurrently, and adoption in task-index order afterwards keeps the
// rendered child order deterministic no matter how the scheduler
// interleaved the workers. A nil receiver no-ops.
func (s *Span) AdoptAll(children []*Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, c := range children {
		if c != nil {
			s.children = append(s.children, c)
		}
	}
	s.mu.Unlock()
}

// End freezes the span's duration. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Add accumulates a named counter on the span (evaluations, rows, ...).
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[counter] += delta
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the frozen duration, or the running elapsed time if the
// span has not Ended yet (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Counter returns one counter's value (0 when absent or nil).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Counters returns a copy of the span's counters (nil when empty or nil).
func (s *Span) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// Children returns the child spans in start order (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// snapshot captures the span's fields under its lock.
func (s *Span) snapshot() (name string, dur time.Duration, counters map[string]int64, children []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = s.name
	if s.ended {
		dur = s.dur
	} else {
		dur = time.Since(s.start)
	}
	if len(s.counters) > 0 {
		counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			counters[k] = v
		}
	}
	children = append(children, s.children...)
	return
}

// counterString renders counters as "[a=1 b=2]" with sorted keys.
func counterString(counters map[string]int64) string {
	if len(counters) == 0 {
		return ""
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(" [")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counters[k])
	}
	b.WriteByte(']')
	return b.String()
}

// WriteText renders the span tree as an indented tree with durations and
// counters. A nil span writes nothing.
func (s *Span) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.writeText(w, "", "")
}

func (s *Span) writeText(w io.Writer, selfPrefix, childPrefix string) error {
	name, dur, counters, children := s.snapshot()
	if _, err := fmt.Fprintf(w, "%s%s %s%s\n", selfPrefix, name, dur.Round(time.Microsecond), counterString(counters)); err != nil {
		return err
	}
	for i, c := range children {
		self, next := childPrefix+"├─ ", childPrefix+"│  "
		if i == len(children)-1 {
			self, next = childPrefix+"└─ ", childPrefix+"   "
		}
		if err := c.writeText(w, self, next); err != nil {
			return err
		}
	}
	return nil
}

// String renders the tree as text.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// SpanRecord is the persisted shape of a span tree: trace.json's root and
// the span of every traces.jsonl line. The writer marshals it and
// internal/report decodes into it, so the two sides share one definition.
type SpanRecord struct {
	Name       string           `json:"name"`
	Start      time.Time        `json:"start"`
	DurationMS float64          `json:"duration_ms"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanRecord    `json:"children,omitempty"`
}

// Record snapshots the whole subtree as a SpanRecord (nil on nil).
func (s *Span) Record() *SpanRecord {
	if s == nil {
		return nil
	}
	name, dur, counters, children := s.snapshot()
	rec := &SpanRecord{
		Name:       name,
		Start:      s.start, // set once by StartSpan, never written again
		DurationMS: float64(dur) / float64(time.Millisecond),
		Counters:   counters,
	}
	for _, c := range children {
		rec.Children = append(rec.Children, c.Record())
	}
	return rec
}

// MarshalJSON implements json.Marshaler, serializing the whole subtree as
// its SpanRecord.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Record())
}
