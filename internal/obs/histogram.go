package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Histogram is a log-linear ("HDR-style") histogram of non-negative int64
// values, built for latency telemetry: updates are lock-free atomics, bucket
// boundaries guarantee a configurable relative error, and snapshots are
// mergeable and quantile-capable.
//
// Bucket scheme. With precision p (sub-bucket bits, S = 2^p sub-buckets per
// octave):
//
//   - values 0..S-1 land in S unit-width buckets (exact);
//   - every later power-of-two range [S·2^(e-1), S·2^e) is split into S
//     buckets of width 2^(e-1).
//
// A bucket's width over its lower bound is therefore at most 1/S = 2^-p, so
// any value reported from a bucket (Quantile reports the bucket's inclusive
// upper bound) overestimates the true value by at most a factor 1 + 2^-p —
// at the default precision 7 that is ≤ 0.79% relative error, uniformly
// across the full int64 range. Memory is (64-p)·2^p counters (57 KiB at
// p=7), allocated once at construction.
//
// Negative observations clamp to zero: the histogram records magnitudes
// (durations, sizes, counts).
//
// The zero cost rules of the package hold: a nil *Histogram no-ops, and
// Observe is a handful of atomic ops with no allocation (both pinned by
// tests).
type Histogram struct {
	precision uint
	buckets   []atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	min       atomic.Int64 // valid only when count > 0
	max       atomic.Int64
}

// Histogram precision limits. Precision is the number of sub-bucket bits:
// relative quantile error is bounded by 2^-precision.
const (
	// DefaultPrecision (7) bounds quantile error at 2^-7 ≈ 0.79%.
	DefaultPrecision = 7
	// MaxPrecision caps per-histogram memory at (64-10)·2^10 counters.
	MaxPrecision = 10
)

// NewHistogram returns a histogram with the given precision (sub-bucket
// bits), clamped to [0, MaxPrecision]. Precision 0 degenerates to plain
// power-of-two buckets.
func NewHistogram(precision int) *Histogram {
	p := uint(min(max(precision, 0), MaxPrecision))
	h := &Histogram{precision: p, buckets: make([]atomic.Int64, (64-p)<<p)}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64, p uint) int {
	u := uint64(v)
	if u < 1<<p {
		return int(u)
	}
	e := uint(bits.Len64(u)) - p // era ≥ 1
	return int(e)<<p + int(u>>(e-1)) - 1<<p
}

// bucketUpper returns the inclusive upper bound of a bucket. For every
// representable non-negative int64 the arithmetic stays in range (the last
// bucket's bound is exactly math.MaxInt64).
func bucketUpper(idx int, p uint) int64 {
	if idx < 1<<p {
		return int64(idx)
	}
	e := uint(idx) >> p
	j := uint64(idx) & (1<<p - 1)
	return int64((1<<p+j+1)<<(e-1) - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v, h.precision)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: sparse bucket
// counts keyed by bucket index, plus the exact observed extremes. Snapshots
// are value types made for the read side — they marshal to JSON (the
// histograms.json artifact), merge across shards, and estimate quantiles.
type HistogramSnapshot struct {
	// Precision is the source histogram's sub-bucket bits; quantile
	// estimates carry relative error at most 2^-Precision.
	Precision int `json:"precision"`
	// Count and Sum aggregate all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Min and Max are the exact observed extremes (0 when Count is 0).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets maps bucket index to its observation count, omitting empty
	// buckets. JSON object keys are the decimal indices.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Concurrent Observes may
// straddle the copy (counts are consistent enough for reporting, as with
// every snapshot in this package).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Precision: DefaultPrecision}
	}
	s := HistogramSnapshot{
		Precision: int(h.precision),
		Count:     h.count.Load(),
		Sum:       h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// Validate checks a snapshot read from outside the process against the
// bucket layout that Quantile and CountAtOrBelow assume: precision in
// [0, MaxPrecision], every bucket index in [0, (64-p)·2^p), and no
// negative count.
func (s HistogramSnapshot) Validate() error {
	if s.Precision < 0 || s.Precision > MaxPrecision {
		return fmt.Errorf("obs: histogram precision %d outside [0, %d]", s.Precision, MaxPrecision)
	}
	if s.Count < 0 {
		return fmt.Errorf("obs: histogram count %d is negative", s.Count)
	}
	n := (64 - s.Precision) << s.Precision
	for i, c := range s.Buckets {
		if i < 0 || i >= n {
			return fmt.Errorf("obs: histogram bucket %d outside [0, %d) at precision %d", i, n, s.Precision)
		}
		if c < 0 {
			return fmt.Errorf("obs: histogram bucket %d has negative count %d", i, c)
		}
	}
	return nil
}

// Quantile estimates the q-quantile (q in [0, 1]) as the inclusive upper
// bound of the bucket holding the rank-⌈q·Count⌉ observation, clamped to the
// exact observed [Min, Max]. The estimate never undershoots the true order
// statistic and overshoots it by at most a factor 1 + 2^-Precision. Returns
// 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= s.Count {
		return s.Max
	}
	idxs := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var cum int64
	for _, i := range idxs {
		cum += s.Buckets[i]
		if cum >= rank {
			return min(max(bucketUpper(i, uint(s.Precision)), s.Min), s.Max)
		}
	}
	return s.Max
}

// CountAtOrBelow returns the number of observations known to be ≤ v: the
// total over buckets whose inclusive upper bound is ≤ v. Observations in
// the bucket straddling v are excluded, so the count never overstates —
// used as the "good events" side of a latency SLI, it is conservative by at
// most one bucket (a relative-2^-Precision sliver of the threshold).
func (s HistogramSnapshot) CountAtOrBelow(v int64) int64 {
	if v < 0 || s.Count == 0 {
		return 0
	}
	if v >= s.Max {
		return s.Count
	}
	var n int64
	p := uint(s.Precision)
	for i, c := range s.Buckets {
		if bucketUpper(i, p) <= v {
			n += c
		}
	}
	return n
}

// BudgetBurn is an SLO's error-budget burn: the bad fraction of total
// events over the allowed fraction 1 − target (0 when nothing was
// observed). 1.0 spends the budget exactly; above 1.0 it is overspent.
func BudgetBurn(bad, total int64, target float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// Mean returns the exact mean of the observations (0 on empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// MaxQuantileError returns the bucket scheme's relative error bound,
// 2^-Precision: Quantile(q) ≤ true q-quantile · (1 + MaxQuantileError()).
func (s HistogramSnapshot) MaxQuantileError() float64 {
	return math.Ldexp(1, -s.Precision)
}

// Merge folds other into s: per-bucket counts add, extremes widen. Shards
// recorded at different precisions do not share a bucket layout, so merging
// them is refused. Merging into an empty snapshot adopts other's precision.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) error {
	if other.Count == 0 {
		return nil
	}
	if s.Count == 0 {
		buckets := make(map[int]int64, len(other.Buckets))
		for i, n := range other.Buckets {
			buckets[i] = n
		}
		*s = other
		s.Buckets = buckets
		return nil
	}
	if s.Precision != other.Precision {
		return fmt.Errorf("obs: cannot merge histogram snapshots of precision %d and %d", s.Precision, other.Precision)
	}
	s.Count += other.Count
	s.Sum += other.Sum
	s.Min = min(s.Min, other.Min)
	s.Max = max(s.Max, other.Max)
	if s.Buckets == nil && len(other.Buckets) > 0 {
		s.Buckets = make(map[int]int64, len(other.Buckets))
	}
	for i, n := range other.Buckets {
		s.Buckets[i] += n
	}
	return nil
}
