package nb

import (
	"math"
	"slices"

	"hamlet/internal/dataset"
)

// SubsetScorer predicts every row of one evaluation design under Naive Bayes
// models over many feature subsets of one Stats, the inner loop of wrapper
// feature selection. Its predictions equal ModelFromStats(s, features,
// alpha) followed by Model.Predict on each row, bit for bit: class scores
// are summed in the subset's order, left to right, from the same tables, and
// the argmax keeps the first class on ties.
//
// The scorer keeps the per-row class scores of the last subset it scored and
// of that subset's prefix (all but its last feature). A subset whose first
// k−1 features equal either kept subset costs one lookup and one addition per
// (row, class): forward selection's current+f candidates and a filter's
// order[:k] sweep hit after the first candidate. Any other subset, such as a
// backward-selection removal, is rebuilt from the prior with lookups. Each
// feature's log-likelihood table is built on first use and kept.
//
// A SubsetScorer is not safe for concurrent use.
type SubsetScorer struct {
	stats    *Stats
	alpha    float64
	m        *dataset.Design
	logPrior []float64
	// logLik[f] is feature f's log-likelihood table, valid once built[f]
	// is set; Reset clears built and the tables are rebuilt in place.
	logLik [][]float64
	built  []bool

	// last and prefix are the subsets whose class scores are kept in
	// lastScores and prefixScores, laid out [c*rows+row]. hasPrefix is
	// false until a subset with at least one feature has been scored;
	// hasLast is false until anything has.
	last, prefix             []int
	lastScores, prefixScores []float64
	hasLast, hasPrefix       bool
	// best[row] is the running maximum class score while predicting.
	best []float64
	pred []int32
}

// NewSubsetScorer returns a scorer of subsets of s's features on design m,
// whose columns must line up with the training design's. Invalid subsets
// and a non-positive alpha are reported by Predict, with ModelFromStats's
// errors.
func NewSubsetScorer(s *Stats, alpha float64, m *dataset.Design) *SubsetScorer {
	n := m.NumRows()
	sc := &SubsetScorer{
		alpha: alpha,
		m:     m,
		best:  make([]float64, n),
		pred:  make([]int32, n),
	}
	sc.Reset(s)
	return sc
}

// Reset points the scorer at s, typically the statistics of the next
// training sample over the same columns, and forgets every kept score and
// table. Afterwards it predicts exactly as NewSubsetScorer(s, alpha, m)
// would, reusing its buffers wherever s's shape allows.
func (sc *SubsetScorer) Reset(s *Stats) {
	n := len(sc.pred)
	sc.stats = s
	sc.logPrior = logPriors(sc.logPrior[:0], s, sc.alpha)
	if len(sc.logLik) != len(s.Counts) {
		sc.logLik = make([][]float64, len(s.Counts))
		sc.built = make([]bool, len(s.Counts))
	}
	clear(sc.built)
	sc.lastScores = resize(sc.lastScores, s.NumClasses*n)
	sc.prefixScores = resize(sc.prefixScores, s.NumClasses*n)
	sc.hasLast, sc.hasPrefix = false, false
}

// table returns feature f's log-likelihood table, building it once.
func (sc *SubsetScorer) table(f int) []float64 {
	if !sc.built[f] {
		sc.logLik[f] = logLikTable(sc.logLik[f][:0], sc.stats, f, sc.alpha)
		sc.built[f] = true
	}
	return sc.logLik[f]
}

// Predict returns the prediction for every row of the design under the
// model over features. The returned slice is reused by the next call.
func (sc *SubsetScorer) Predict(features []int) ([]int32, error) {
	if err := checkSubset(sc.stats, features, sc.alpha); err != nil {
		return nil, err
	}
	k := len(features)
	if k == 0 {
		sc.scorePrior()
		return sc.pred, nil
	}
	head := features[:k-1]
	switch {
	case sc.hasLast && slices.Equal(head, sc.last):
		// Extends the last subset: it becomes the prefix.
		sc.last, sc.prefix = sc.prefix, sc.last
		sc.lastScores, sc.prefixScores = sc.prefixScores, sc.lastScores
		sc.hasPrefix = true
	case sc.hasPrefix && slices.Equal(head, sc.prefix):
		// A sibling of the last subset: same prefix, another last feature.
	default:
		sc.rebuildPrefix(head)
	}
	sc.last = append(sc.last[:0], features...)
	sc.hasLast = true
	sc.extend(features[k-1])
	return sc.pred, nil
}

// scorePrior scores the empty subset: every row gets the class priors.
func (sc *SubsetScorer) scorePrior() {
	n := len(sc.pred)
	for c, p := range sc.logPrior {
		fill(sc.lastScores[c*n:(c+1)*n], p)
	}
	best := int32(0)
	bestScore := math.Inf(-1)
	for c, p := range sc.logPrior {
		if p > bestScore {
			bestScore = p
			best = int32(c)
		}
	}
	for i := range sc.pred {
		sc.pred[i] = best
	}
	sc.last = sc.last[:0]
	sc.hasLast = true
}

// rebuildPrefix recomputes the prefix scores of head from the prior.
func (sc *SubsetScorer) rebuildPrefix(head []int) {
	n := len(sc.pred)
	for c, p := range sc.logPrior {
		dst := sc.prefixScores[c*n : (c+1)*n]
		fill(dst, p)
		for _, f := range head {
			card := sc.stats.Cards[f]
			t := sc.table(f)[c*card : (c+1)*card]
			data := sc.m.Features[f].Data[:n]
			dst := dst[:len(data)]
			for i, v := range data {
				dst[i] += t[v]
			}
		}
	}
	sc.prefix = append(sc.prefix[:0], head...)
	sc.hasPrefix = true
}

// extend sets the last scores to the prefix scores plus feature f's table
// and predicts each row from them, scanning the classes in order with a
// strict > as Model.Predict does.
func (sc *SubsetScorer) extend(f int) {
	n := len(sc.pred)
	best, pred := sc.best, sc.pred
	fill(best, math.Inf(-1))
	clear(pred)
	card := sc.stats.Cards[f]
	tab, data := sc.table(f), sc.m.Features[f].Data[:n]
	// Reslicing every per-row slice to len(data) lets the compiler drop
	// their bounds checks in the row loop.
	for c := 0; c < sc.stats.NumClasses; c++ {
		src := sc.prefixScores[c*n : (c+1)*n][:len(data)]
		dst := sc.lastScores[c*n : (c+1)*n][:len(data)]
		t := tab[c*card : (c+1)*card]
		best := best[:len(data)]
		pred := pred[:len(data)]
		for i, v := range data {
			x := src[i] + t[v]
			dst[i] = x
			if x > best[i] {
				best[i] = x
				pred[i] = int32(c)
			}
		}
	}
}

// resize returns buf with length n, reallocating only when it is too small.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// fill sets every element of buf to v.
func fill(buf []float64, v float64) {
	for i := range buf {
		buf[i] = v
	}
}
