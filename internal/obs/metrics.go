package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing process-wide metric. The zero value
// is usable; a nil Counter no-ops.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter when the metrics layer is enabled.
func (c *Counter) Add(delta int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.n.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value-wins process-wide metric.
type Gauge struct {
	n atomic.Int64
}

// Set records the current value when the metrics layer is enabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.n.Store(v)
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// Registry is a named collection of metrics. Metrics are created on first
// use and live for the life of the process.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every instrumented package reports
// into: served live on /metrics (WriteProm) and persisted as metrics.json
// (Snapshot).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it at DefaultPrecision on
// first use. Histograms needing a different precision are built directly
// with NewHistogram (e.g. cmd/loadgen's per-worker latency shards).
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(DefaultPrecision)
		r.histograms[name] = h
	}
	return h
}

// Snapshot renders every metric into a JSON-marshalable map: counters and
// gauges as numbers, histograms as HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// C returns a counter from the Default registry. Hot paths grab their
// counters once at package init:
//
//	var joins = obs.C("relational.joins")
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }
