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
// the argmax is Model.Predict's scan from -Inf with a strict >, so the
// first class wins ties and a NaN score never wins.
//
// Adding the last feature of a subset runs the scan in conditional moves
// rather than a branch per (row, class), whose outcome the data would make
// unpredictable. With two classes one pass over the rows adds both scores
// and runs the scan's own two float comparisons, unrolled. With more, one
// pass per class adds that class's scores, and then one pass over the rows
// compares each row's finished scores by scoreKey's int64 keys, which order
// every float as the scan does (NaN, ±Inf and ±0 included). Either way the
// pick is the scan's class.
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
	pred                     []int32
}

// NewSubsetScorer returns a scorer of subsets of s's features on design m,
// whose columns must line up with the training design's. Invalid subsets
// and an alpha that is not positive and finite are reported by Predict,
// with ModelFromStats's errors.
func NewSubsetScorer(s *Stats, alpha float64, m *dataset.Design) *SubsetScorer {
	n := m.NumRows()
	sc := &SubsetScorer{
		alpha: alpha,
		m:     m,
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
// and predicts each row from them with the branch-free pick described on
// SubsetScorer.
func (sc *SubsetScorer) extend(f int) {
	n, classes := len(sc.pred), sc.stats.NumClasses
	card := sc.stats.Cards[f]
	tab, data := sc.table(f), sc.m.Features[f].Data[:n]
	// Reslicing every per-row slice to len(data) lets the compiler drop
	// their bounds checks in the row loops.
	pred := sc.pred[:len(data)]
	if classes == 2 {
		// Model.Predict's scan unrolled for two classes: class 1 wins when
		// its score beats the scan's best after class 0, which is class
		// 0's score if that passed the first > (against -Inf) and -Inf
		// otherwise. These are the scan's own comparisons, so every float
		// picks the same class; carrying the bound as bits lets both picks
		// compile to conditional moves. On binary designs this loop takes
		// about half the time of the general one below.
		s0, s1 := sc.prefixScores[:n][:len(data)], sc.prefixScores[n : 2*n][:len(data)]
		d0, d1 := sc.lastScores[:n][:len(data)], sc.lastScores[n : 2*n][:len(data)]
		t0, t1 := tab[:card], tab[card:2*card]
		for i, v := range data {
			a, b := s0[i]+t0[v], s1[i]+t1[v]
			d0[i], d1[i] = a, b
			bound, bits := uint64(negInfBits), math.Float64bits(a)
			if a > math.Inf(-1) {
				bound = bits
			}
			var p int32
			if b > math.Float64frombits(bound) {
				p = 1
			}
			pred[i] = p
		}
		return
	}
	// Sum class by class, then pick each row's class from its finished
	// scores: split in two, each loop keeps its values in registers, which
	// measured faster than doing both in one loop over the rows.
	for c := 0; c < classes; c++ {
		src := sc.prefixScores[c*n : (c+1)*n][:len(data)]
		dst := sc.lastScores[c*n : (c+1)*n][:len(data)]
		t := tab[c*card : (c+1)*card]
		for i, v := range data {
			dst[i] = src[i] + t[v]
		}
	}
	scores := sc.lastScores[:classes*n]
	for i := range pred {
		best, p := int64(negInfKey), int32(0)
		for c, j := int32(0), i; j < len(scores); c, j = c+1, j+n {
			k := scoreKey(scores[j])
			if k > best {
				p = c
			}
			best = max(best, k)
		}
		pred[i] = p
	}
}

// negInfBits is -Inf's bit pattern, and negInfKey is scoreKey(-Inf): the
// argmax scan's starting score.
const (
	negInfBits = 0xfff0000000000000
	negInfKey  = -0x7ff0000000000000 + (1<<52 - 1)
)

// scoreKey maps a class score to an int64 that the argmax scan can compare
// in place of the score. For scores x and y that are not NaN, x > y exactly
// when scoreKey(x) > scoreKey(y): the sign-magnitude bits become two's
// complement, so the keys are monotone and -0 and +0, which compare equal,
// share one. Adding 2^52-1, the number of positive NaN bit patterns, wraps
// those, and only those, past MaxInt64 to below negInfKey, where the
// negative NaNs already are. So a NaN's key, like the NaN in the float scan
// that starts from -Inf, never passes a >, and a scan over keys that starts
// from negInfKey picks the same class as the float scan for every float.
func scoreKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	mag, sign := b&math.MaxInt64, b>>63
	return (mag ^ sign) - sign + (1<<52 - 1)
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
