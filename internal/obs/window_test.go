package obs

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// fakeClock drives rotation deterministically: tests advance it by hand.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// newTestWindowedHistogram pins the clock to a fake so window boundaries are
// exact.
func newTestWindowedHistogram(interval time.Duration, windows int) (*WindowedHistogram, *fakeClock) {
	clk := &fakeClock{ns: int64(time.Hour)} // arbitrary nonzero origin
	w := NewWindowedHistogram(DefaultPrecision, interval, windows)
	w.nowNS = clk.now
	w.epoch = clk.now()
	return w, clk
}

func newTestWindowedCounter(interval time.Duration, windows int) (*WindowedCounter, *fakeClock) {
	clk := &fakeClock{ns: int64(time.Hour)}
	c := NewWindowedCounter(interval, windows)
	c.nowNS = clk.now
	c.epoch = clk.now()
	c.born = clk.now()
	return c, clk
}

func TestWindowedHistogramRotationDropsOldWindows(t *testing.T) {
	w, clk := newTestWindowedHistogram(time.Second, 3)
	w.Observe(100)
	w.Observe(200)
	if got := w.Window(1).Count; got != 2 {
		t.Fatalf("active window count = %d, want 2", got)
	}

	clk.advance(time.Second) // close window 0
	_ = w.Window(1)          // rotation is read-driven; a read catches up
	w.Observe(300)
	if got := w.Window(1).Count; got != 1 {
		t.Errorf("active window count after rotation = %d, want 1", got)
	}
	if got := w.Window(2).Count; got != 3 {
		t.Errorf("last-2-windows count = %d, want 3", got)
	}

	// Two more rotations: the ring holds 3 windows, so window 0's
	// observations fall out while window 1's survive in the merge.
	clk.advance(2 * time.Second)
	if got := w.Window(3).Count; got != 1 {
		t.Errorf("full-ring count after eviction = %d, want 1 (300 only)", got)
	}
	// The cumulative histogram never forgets.
	if got := w.Total().Count; got != 3 {
		t.Errorf("cumulative count = %d, want 3", got)
	}

	// A long idle gap clears every live window.
	clk.advance(time.Minute)
	if got := w.Window(3); got.Count != 0 {
		t.Errorf("post-idle ring count = %d, want 0", got.Count)
	}
}

// TestWindowedHistogramMergeMatchesCumulative is the property test: as long
// as nothing has been evicted from the ring, the merge of all windows is the
// same distribution as the cumulative histogram — identical count and sum,
// and quantiles that agree within the bucket scheme's relative error.
func TestWindowedHistogramMergeMatchesCumulative(t *testing.T) {
	w, clk := newTestWindowedHistogram(time.Second, 8)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 5000; i++ {
		w.Observe(rng.Int64N(1 << 40))
		if i%1000 == 999 {
			clk.advance(time.Second) // spread observations over 5 of 8 windows
		}
	}
	merged := w.Window(8)
	total := w.Total()
	if merged.Count != total.Count || merged.Sum != total.Sum {
		t.Fatalf("merged (count %d, sum %d) != cumulative (count %d, sum %d)",
			merged.Count, merged.Sum, total.Count, total.Sum)
	}
	if merged.Min != total.Min || merged.Max != total.Max {
		t.Errorf("merged extremes [%d, %d] != cumulative [%d, %d]",
			merged.Min, merged.Max, total.Min, total.Max)
	}
	maxErr := merged.MaxQuantileError() + total.MaxQuantileError()
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		m, c := merged.Quantile(q), total.Quantile(q)
		lo, hi := float64(c)*(1-maxErr), float64(c)*(1+maxErr)
		if float64(m) < lo || float64(m) > hi {
			t.Errorf("q%.3f: merged %d outside cumulative %d ± %.2f%%", q, m, c, 100*maxErr)
		}
	}
}

// TestWindowedHistogramObserveDuringRotation hammers Observe from many
// goroutines while another thread forces rotations and snapshots; run under
// -race this pins the lock-free Observe / locked rotation interplay. The
// cumulative count must be exact regardless of where the ring was mid-write.
func TestWindowedHistogramObserveDuringRotation(t *testing.T) {
	w, clk := newTestWindowedHistogram(time.Millisecond, 4)
	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Observe(int64(g*perG + i))
			}
		}(g)
	}
	var rot sync.WaitGroup
	rot.Add(1)
	go func() {
		defer rot.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.advance(time.Millisecond)
				_ = w.Window(2)
				_ = w.Total()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rot.Wait()
	if got := w.Total().Count; got != writers*perG {
		t.Errorf("cumulative count = %d, want %d", got, writers*perG)
	}
	if got := w.Window(4).Count; got > writers*perG {
		t.Errorf("windowed count = %d exceeds observations %d", got, writers*perG)
	}
}

func TestWindowedCounterRate(t *testing.T) {
	c, clk := newTestWindowedCounter(time.Second, 4)
	c.Add(500)
	clk.advance(500 * time.Millisecond)
	if got := c.Rate(); got < 999 || got > 1001 {
		t.Errorf("rate after 500 events in 0.5s = %.1f, want ~1000", got)
	}
	// A full idle ring decays the rate to zero.
	clk.advance(10 * time.Second)
	if got := c.Rate(); got != 0 {
		t.Errorf("idle rate = %.1f, want 0", got)
	}
	// Rate covers the ring's whole live span, not just the active window:
	// 200 events inside a full 4-deep ring — 3 closed windows plus the 0.5s
	// the idle jump left in the active one → 200 / 3.5s.
	c.Add(100)
	clk.advance(time.Second)
	c.Add(100)
	clk.advance(time.Second)
	if got := c.Rate(); got < 57 || got > 57.5 {
		t.Errorf("rolling rate = %.1f, want ~57.1", got)
	}
}

// TestWindowedCounterConcurrentAdd hammers Add while another goroutine
// forces rotations (run under -race this pins the lock-free Add / locked
// rotation interplay), then checks that concurrent Adds into a still ring
// lose no update.
func TestWindowedCounterConcurrentAdd(t *testing.T) {
	c, clk := newTestWindowedCounter(time.Millisecond, 4)
	const (
		adders = 8
		perG   = 5000
	)
	hammer := func() {
		var wg sync.WaitGroup
		wg.Add(adders)
		for g := 0; g < adders; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
	}
	stop := make(chan struct{})
	var rot sync.WaitGroup
	rot.Add(1)
	go func() {
		defer rot.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.advance(time.Millisecond)
				if r := c.Rate(); r < 0 {
					t.Errorf("rate = %v mid-rotation, want >= 0", r)
				}
			}
		}
	}()
	hammer()
	close(stop)
	rot.Wait()

	live := func() (n int64) {
		for i := range c.slots {
			n += c.slots[i].Load()
		}
		return n
	}
	before := live()
	hammer() // the clock is still, so the ring does not rotate
	if got := live() - before; got != adders*perG {
		t.Errorf("ring gained %d, want %d", got, adders*perG)
	}
}

// TestNilWindowedNoOps: the package's zero-cost contract extends to the
// windowed types — nil receivers answer empty and never panic.
func TestNilWindowedNoOps(t *testing.T) {
	var w *WindowedHistogram
	w.Observe(1)
	if s := w.Window(3); s.Count != 0 || s.Precision != DefaultPrecision {
		t.Errorf("nil Window = %+v", s)
	}
	if s := w.Total(); s.Count != 0 || s.Precision != DefaultPrecision {
		t.Errorf("nil Total = %+v", s)
	}
	var c *WindowedCounter
	c.Add(1)
	c.Inc()
	if c.Rate() != 0 {
		t.Error("nil counter rate nonzero")
	}
}

// TestWindowedHotPathAllocFree pins the alloc-free guarantee for both the
// nil-receiver path and the live enabled path of the windowed types.
func TestWindowedHotPathAllocFree(t *testing.T) {
	var nilW *WindowedHistogram
	var nilC *WindowedCounter
	if n := testing.AllocsPerRun(200, func() {
		nilW.Observe(42)
		nilC.Add(1)
	}); n != 0 {
		t.Errorf("nil windowed hot path allocates %.1f/op, want 0", n)
	}
	w := NewWindowedHistogram(DefaultPrecision, time.Hour, 4)
	c := NewWindowedCounter(time.Hour, 4)
	if n := testing.AllocsPerRun(200, func() {
		w.Observe(42)
		c.Inc()
	}); n != 0 {
		t.Errorf("live windowed hot path allocates %.1f/op, want 0", n)
	}
}

func BenchmarkWindowedHistogramObserve(b *testing.B) {
	w := NewWindowedHistogram(DefaultPrecision, time.Hour, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(int64(i & 0xffff))
	}
}

func BenchmarkWindowedCounterInc(b *testing.B) {
	c := NewWindowedCounter(time.Hour, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
