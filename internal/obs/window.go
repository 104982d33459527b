package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the rolling-window half of the metrics layer: the cumulative
// Histogram and Counter answer "since process start", these answer "over the
// last N windows" — the question a live scrape surface (/metrics) and a
// terminal watcher ask. A WindowedHistogram is a ring of the existing
// HDR-style histograms rotated on a wall-clock interval; a WindowedCounter
// is the same ring over plain counters, reduced to a rate.
//
// Concurrency model. Observe/Add stay lock-free: one extra atomic load (the
// active slot index) on top of the underlying histogram/counter update, so
// the hot-path guarantees of the package hold unchanged — nil receivers
// no-op, disabled metrics cost one atomic load, and neither path allocates
// (pinned by window_test.go). Rotation is read-driven: Window and Rate catch
// the ring up with the wall clock under a mutex before answering, so an
// idle ring costs nothing and a scraped ring is always time-aligned at
// scrape granularity. An observation racing a rotation may land in the
// window just closed (the slot index is read before the bucket update);
// window attribution is approximate at the boundary by design, while the
// cumulative histogram stays exact.
const (
	// DefaultWindow is the rotation interval when none is given.
	DefaultWindow = 10 * time.Second
	// DefaultWindows is the ring size when none is given: with
	// DefaultWindow, a one-minute rolling view.
	DefaultWindows = 6
)

// WindowedHistogram is a ring of Histograms rotated on a wall-clock
// interval, plus a cumulative histogram observing everything. The zero value
// is not usable; build with NewWindowedHistogram. A nil *WindowedHistogram
// no-ops everywhere.
type WindowedHistogram struct {
	interval int64 // window length, ns
	slots    []*Histogram
	total    *Histogram
	// cur is the active window's sequence number; slot = cur % len(slots).
	cur atomic.Uint64
	// mu serializes rotation and ring-wide snapshots.
	mu    sync.Mutex
	epoch int64 // start of the active window (unix ns), guarded by mu
	nowNS func() int64
}

// NewWindowedHistogram returns a ring of `windows` histograms at the given
// precision, rotated every `interval` (non-positive values take the
// defaults; the ring holds at least two windows so "last window" and "active
// window" are distinct).
func NewWindowedHistogram(precision int, interval time.Duration, windows int) *WindowedHistogram {
	if interval <= 0 {
		interval = DefaultWindow
	}
	if windows < 2 {
		windows = DefaultWindows
	}
	w := &WindowedHistogram{
		interval: int64(interval),
		slots:    make([]*Histogram, windows),
		total:    NewHistogram(precision),
		nowNS:    func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i] = NewHistogram(precision)
	}
	w.epoch = w.nowNS()
	return w
}

// Observe records one value into the active window and the cumulative
// histogram. Lock-free: the rotation mutex is never touched here.
func (w *WindowedHistogram) Observe(v int64) {
	if w == nil {
		return
	}
	w.slots[int(w.cur.Load())%len(w.slots)].Observe(v)
	w.total.Observe(v)
}

// Total snapshots the cumulative histogram (empty on a nil receiver).
func (w *WindowedHistogram) Total() HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{Precision: DefaultPrecision}
	}
	return w.total.Snapshot()
}

// advanceLocked rotates the ring forward to now. Caller holds mu.
func (w *WindowedHistogram) advanceLocked(now int64) {
	steps := (now - w.epoch) / w.interval
	if steps <= 0 {
		return
	}
	w.epoch += steps * w.interval
	if steps > int64(len(w.slots)) {
		steps = int64(len(w.slots)) // every live window is stale; clear them all
	}
	cur := w.cur.Load()
	for i := int64(0); i < steps; i++ {
		cur++
		w.slots[int(cur)%len(w.slots)].reset()
		w.cur.Store(cur)
	}
}

// Window merges the last n windows — the active (partial) one plus the n-1
// most recent closed ones — into one snapshot, after catching the ring up
// with the clock. n outside [1, ring depth] means the whole ring. On a nil
// receiver returns an empty snapshot at DefaultPrecision.
func (w *WindowedHistogram) Window(n int) HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{Precision: DefaultPrecision}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advanceLocked(w.nowNS())
	if n < 1 || n > len(w.slots) {
		n = len(w.slots)
	}
	var out HistogramSnapshot
	cur := int64(w.cur.Load())
	for i := int64(0); i < int64(n); i++ {
		s := cur - i
		if s < 0 {
			break // the ring is younger than n windows
		}
		// Same precision by construction; Merge cannot fail.
		_ = out.Merge(w.slots[int(s)%len(w.slots)].Snapshot())
	}
	if out.Count == 0 {
		out.Precision = int(w.total.precision)
	}
	return out
}

// WindowedCounter is a rolling-rate counter: Add lands in the active window
// of a ring rotated on a wall-clock interval, and Rate reduces the ring to
// events per second. Cumulative counts live with the caller (advisord's
// request counters). The zero value is not usable; build with
// NewWindowedCounter. A nil *WindowedCounter no-ops.
type WindowedCounter struct {
	interval int64
	slots    []atomic.Int64
	cur      atomic.Uint64
	mu       sync.Mutex
	epoch    int64 // start of the active window (unix ns), guarded by mu
	born     int64 // construction time (unix ns)
	nowNS    func() int64
}

// NewWindowedCounter returns a counter ring of `windows` slots rotated every
// `interval` (non-positive values take the defaults).
func NewWindowedCounter(interval time.Duration, windows int) *WindowedCounter {
	if interval <= 0 {
		interval = DefaultWindow
	}
	if windows < 2 {
		windows = DefaultWindows
	}
	c := &WindowedCounter{
		interval: int64(interval),
		slots:    make([]atomic.Int64, windows),
		nowNS:    func() int64 { return time.Now().UnixNano() },
	}
	c.epoch = c.nowNS()
	c.born = c.epoch
	return c
}

// Add increments the counter when the metrics layer is enabled. Lock-free.
func (c *WindowedCounter) Add(delta int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.slots[int(c.cur.Load())%len(c.slots)].Add(delta)
}

// Inc adds one.
func (c *WindowedCounter) Inc() { c.Add(1) }

// advanceLocked rotates the ring forward to now. Caller holds mu.
func (c *WindowedCounter) advanceLocked(now int64) {
	steps := (now - c.epoch) / c.interval
	if steps <= 0 {
		return
	}
	c.epoch += steps * c.interval
	if steps > int64(len(c.slots)) {
		steps = int64(len(c.slots))
	}
	cur := c.cur.Load()
	for i := int64(0); i < steps; i++ {
		cur++
		c.slots[int(cur)%len(c.slots)].Store(0)
		c.cur.Store(cur)
	}
}

// Rate returns events per second over the ring's live span: the closed
// windows still in the ring plus the active partial one, so it is a rolling
// rate over at most the ring depth times the interval of history. Returns 0 before any
// time has passed or on a nil receiver.
func (c *WindowedCounter) Rate() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.nowNS()
	c.advanceLocked(now)
	var sum int64
	for i := range c.slots {
		sum += c.slots[i].Load()
	}
	// The span the ring covers: the active window's elapsed fraction plus
	// one full interval per older live window, clamped to the counter's age
	// (a young ring has not lived its full depth yet).
	live := int64(c.cur.Load()) + 1
	if live > int64(len(c.slots)) {
		live = int64(len(c.slots))
	}
	span := (live-1)*c.interval + (now - c.epoch)
	if age := now - c.born; span > age {
		span = age
	}
	if span <= 0 {
		return 0
	}
	return float64(sum) / (float64(span) / float64(time.Second))
}
