package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress reports periodic progress/ETA lines for long Monte Carlo runs.
// The producer side (biasvar.Run, experiment runners) calls AddTotal as it
// learns how much work is coming and Step as units complete; the consumer
// (a CLI's -progress flag) decides where lines go and how often.
//
// Totals may grow while running (an experiment discovers its sweep points
// one at a time), so the ETA is a rolling estimate over the currently-known
// total. All methods no-op on a nil receiver, so library code passes
// Progress handles unconditionally.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	every time.Duration
	start time.Time
	last  time.Time
	total int64
	done  int64
	// events, when non-nil, receives one progress event per emitted line,
	// persisting the milestones a -progress stderr stream shows live.
	events *EventLog
}

// NewProgress returns a reporter writing to w at most once per every
// (every <= 0 reports on each Step — useful in tests).
func NewProgress(w io.Writer, label string, every time.Duration) *Progress {
	return &Progress{w: w, label: label, every: every, start: time.Now()}
}

// AttachEvents mirrors every emitted progress line into l as a typed
// progress event (a nil l detaches).
func (p *Progress) AttachEvents(l *EventLog) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.events = l
	p.mu.Unlock()
}

// AddTotal announces n more units of upcoming work.
func (p *Progress) AddTotal(n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// Step records n completed units and emits a line if the reporting interval
// has elapsed.
func (p *Progress) Step(n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += n
	now := time.Now()
	if now.Sub(p.last) < p.every {
		return
	}
	p.last = now
	p.emit(now)
}

// Flush emits a final line regardless of the interval (CLIs call it when a
// run completes).
func (p *Progress) Flush() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(time.Now())
}

// emit writes one progress line; the caller holds the lock.
func (p *Progress) emit(now time.Time) {
	elapsed := now.Sub(p.start)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.done) / elapsed.Seconds()
	}
	line := fmt.Sprintf("progress: %s %d", p.label, p.done)
	if p.total > 0 {
		line = fmt.Sprintf("progress: %s %d/%d (%.1f%%)", p.label, p.done, p.total, 100*float64(p.done)/float64(p.total))
	}
	line += fmt.Sprintf(" %.1f/s elapsed %s", rate, elapsed.Round(time.Second))
	if p.total > p.done && rate > 0 {
		eta := time.Duration(float64(p.total-p.done)/rate) * time.Second
		line += fmt.Sprintf(" eta %s", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
	p.events.Progress(p.label, p.done, p.total)
}
