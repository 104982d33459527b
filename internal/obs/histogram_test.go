package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sampleLatencies draws a deterministic, heavy-tailed sample shaped like
// request latencies: a lognormal body with a uniform far tail.
func sampleLatencies(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 12)) // ~160µs median in ns
		if rng.Intn(100) == 0 {
			v += rng.Int63n(50_000_000) // occasional 50ms-scale excursions
		}
		out[i] = v
	}
	return out
}

// exactQuantile is the rank-⌈q·n⌉ order statistic of a sorted sample — the
// reference the histogram estimate is bounded against.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestHistogramQuantileWithinErrorBound is the property check behind the
// documented guarantee: for any sample, Quantile(q) never undershoots the
// exact sample quantile and overshoots it by at most a factor 1+2^-p.
func TestHistogramQuantileWithinErrorBound(t *testing.T) {
	for _, p := range []int{4, DefaultPrecision, MaxPrecision} {
		samples := sampleLatencies(20000, 7)
		h := NewHistogram(p)
		for _, v := range samples {
			h.Observe(v)
		}
		snap := h.Snapshot()
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			exact := exactQuantile(sorted, q)
			est := snap.Quantile(q)
			if est < exact {
				t.Errorf("p=%d q=%g: estimate %d undershoots exact %d", p, q, est, exact)
			}
			if bound := float64(exact) * (1 + snap.MaxQuantileError()); float64(est) > bound {
				t.Errorf("p=%d q=%g: estimate %d beyond error bound %.0f (exact %d)", p, q, est, bound, exact)
			}
		}
		if got := snap.Quantile(0); got != sorted[0] {
			t.Errorf("p=%d: Quantile(0) = %d, want exact min %d", p, got, sorted[0])
		}
		if got := snap.Quantile(1); got != sorted[len(sorted)-1] {
			t.Errorf("p=%d: Quantile(1) = %d, want exact max %d", p, got, sorted[len(sorted)-1])
		}
	}
}

// TestHistogramMergeMatchesSingle pins the merge contract loadgen relies on:
// per-worker shards merged snapshot-wise are indistinguishable from one
// histogram that saw every observation.
func TestHistogramMergeMatchesSingle(t *testing.T) {
	samples := sampleLatencies(8000, 11)
	whole := NewHistogram(DefaultPrecision)
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = NewHistogram(DefaultPrecision)
	}
	for i, v := range samples {
		whole.Observe(v)
		shards[i%len(shards)].Observe(v)
	}
	var merged HistogramSnapshot
	for _, sh := range shards {
		if err := merged.Merge(sh.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged, whole.Snapshot()) {
		t.Errorf("merged shards diverge from the single histogram:\n%#v\n%#v", merged, whole.Snapshot())
	}
}

func TestHistogramMergeRefusesPrecisionMismatch(t *testing.T) {
	a, b := NewHistogram(4), NewHistogram(7)
	a.Observe(10)
	b.Observe(10)
	snap := a.Snapshot()
	if err := snap.Merge(b.Snapshot()); err == nil {
		t.Fatal("merging precision-4 and precision-7 snapshots did not error")
	}
	// Merging an empty shard is a no-op regardless of precision.
	if err := snap.Merge(NewHistogram(7).Snapshot()); err != nil || snap.Count != 1 {
		t.Errorf("empty-shard merge: err=%v count=%d", err, snap.Count)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	snap := NewHistogram(DefaultPrecision).Snapshot()
	if snap.Count != 0 || snap.Min != 0 || snap.Max != 0 || snap.Buckets != nil {
		t.Errorf("empty snapshot = %#v", snap)
	}
	if snap.Quantile(0.99) != 0 || snap.Mean() != 0 {
		t.Error("empty snapshot quantile/mean not zero")
	}
}

// TestHistogramSnapshotValidate: every snapshot a histogram can produce is
// valid, down to the last bucket at each precision limit, and a snapshot
// whose precision, bucket indices or counts fall outside the layout is not.
func TestHistogramSnapshotValidate(t *testing.T) {
	for _, p := range []int{0, DefaultPrecision, MaxPrecision} {
		h := NewHistogram(p)
		for _, v := range []int64{0, 1, 1000, math.MaxInt64} {
			h.Observe(v)
		}
		if err := h.Snapshot().Validate(); err != nil {
			t.Errorf("precision %d: valid snapshot rejected: %v", p, err)
		}
	}
	valid := func() HistogramSnapshot {
		h := NewHistogram(DefaultPrecision)
		h.Observe(100)
		return h.Snapshot()
	}
	last := (64 - DefaultPrecision) << DefaultPrecision
	for name, tamper := range map[string]func(*HistogramSnapshot){
		"precision -10":        func(s *HistogramSnapshot) { s.Precision = -10 },
		"precision above max":  func(s *HistogramSnapshot) { s.Precision = MaxPrecision + 1 },
		"negative bucket":      func(s *HistogramSnapshot) { s.Buckets[-1] = 1 },
		"bucket past layout":   func(s *HistogramSnapshot) { s.Buckets[last] = 1 },
		"negative bucket size": func(s *HistogramSnapshot) { s.Buckets[0] = -1 },
		"negative count":       func(s *HistogramSnapshot) { s.Count = -1 },
	} {
		s := valid()
		tamper(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, s)
		}
	}
}

// The latency hot path contract: Observe must stay off the allocator both
// on a live histogram (the loadgen per-request path) and on the nil
// receiver. Mirrors the nil *EventLog / *RunDir pins.
func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefaultPrecision)
	v := int64(0)
	if n := testing.AllocsPerRun(500, func() {
		h.Observe(v)
		v += 997
	}); n != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(500, func() {
		nilH.Observe(123)
	}); n != 0 {
		t.Errorf("nil Observe allocates %.1f/op, want 0", n)
	}
}
