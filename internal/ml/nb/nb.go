// Package nb implements the Laplace-smoothed Naive Bayes classifier the
// paper uses as its running example (§2.1, §4.1).
//
// The key engineering property is decomposability: Naive Bayes sufficient
// statistics factor per feature, so the class-conditional count table of
// every candidate feature is tabulated once per training set (Stats), and
// each feature's smoothed log-likelihood table log P(x_f = v | c) is derived
// from it once (logLikTable). A model's class score is then the prior plus
// one table lookup per feature. SubsetScorer carries this across a greedy
// search: it keeps the per-row class scores of the last subset it scored and
// of that subset's prefix, so a candidate that extends either by one feature
// costs O(validation rows × classes), independent of the subset's size, and
// never re-counts. This is what makes the paper's Figure 7 runtime
// comparison tractable; the speedups there are driven by the number of
// candidate features in play.
//
// A candidate picks each evaluation row's class without a branch per class:
// Model.Predict's strict-> argmax scan runs in conditional moves, over the
// scan's own float comparisons for two classes and over order-preserving
// integer keys (scoreKey) for more. Both pick the scan's class for every
// float score, NaN, ±Inf and ±0 included, so predictions stay bit-identical
// to Model.Predict.
//
// The bias–variance Monte Carlo (biasvar.RunWorld) makes the same split per
// trial: one Stats per training sample, and one SubsetScorer over the test
// design that predicts every model class, rebound to the next sample with
// Reset. A trial's Stats are counted as its sample is drawn
// (synth.World.TallyInto, through Recount), with no training design. Neither
// wrapper search nor a Monte Carlo trial builds a Model, so during them
// nb.fits and nb.models_assembled stay put while nb.stats_builds counts one
// tabulation per training sample.
//
// Learner.Fit tabulates only the features of the subset it fits, since the
// model reads no other counts; nb.stats_builds counts that subset pass too,
// one per tabulation whatever its width.
package nb

import (
	"fmt"
	"math"
	"slices"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/obs"
)

// Naive Bayes instrumentation: sufficient-statistics tabulations (the
// expensive counting pass: NewStats over every feature, or Learner.Fit over
// its subset), Model builds from statistics (ModelFromStats, so every Fit;
// subset scoring in wrapper search builds no Model and is counted by
// fs.subset_evaluations instead), and Learner.Fit calls.
var (
	statsBuilds     = obs.C("nb.stats_builds")
	statsRowsHist   = obs.H("nb.stats_rows")
	modelAssemblies = obs.C("nb.models_assembled")
	fitCalls        = obs.C("nb.fits")
)

// Stats holds per-feature class-conditional counts for one training design
// matrix: the complete sufficient statistics for Naive Bayes over any subset
// of its features.
type Stats struct {
	// N is the number of training examples.
	N int
	// NumClasses is the target cardinality.
	NumClasses int
	// ClassCounts[c] is the number of examples with Y = c.
	ClassCounts []int
	// Counts[f][c*card_f + v] counts examples with Y = c and feature f
	// taking value v. It is nil for a feature that was not tabulated:
	// Learner.Fit counts only the subset it fits.
	Counts [][]int
	// Cards[f] is feature f's cardinality.
	Cards []int
}

// NewStats tabulates sufficient statistics for every feature of m.
func NewStats(m *dataset.Design) *Stats {
	s := newStats(m)
	for f := range m.Features {
		s.count(m, f)
	}
	return s
}

// newStats counts m's classes and records every feature's cardinality,
// leaving the feature counts to count.
func newStats(m *dataset.Design) *Stats {
	statsBuilds.Inc()
	statsRowsHist.Observe(int64(m.NumRows()))
	s := &Stats{
		N:           m.NumRows(),
		NumClasses:  m.NumClasses,
		ClassCounts: make([]int, m.NumClasses),
		Counts:      make([][]int, m.NumFeatures()),
		Cards:       make([]int, m.NumFeatures()),
	}
	for _, y := range m.Y {
		s.ClassCounts[y]++
	}
	for f := range m.Features {
		s.Cards[f] = m.Features[f].Card
	}
	return s
}

// Recount returns Stats over n rows of the given classes and feature
// cardinalities with every count zero, for a caller that counts the rows
// itself: a sampler that tallies its draws without storing them. It reuses
// s when s has that shape and allocates new Stats otherwise. Like NewStats
// it counts one tabulation in nb.stats_builds.
func Recount(s *Stats, n, classes int, cards []int) *Stats {
	statsBuilds.Inc()
	statsRowsHist.Observe(int64(n))
	if s == nil || s.NumClasses != classes || !slices.Equal(s.Cards, cards) {
		s = &Stats{
			NumClasses:  classes,
			ClassCounts: make([]int, classes),
			Counts:      make([][]int, len(cards)),
			Cards:       slices.Clone(cards),
		}
		for f, card := range cards {
			s.Counts[f] = make([]int, classes*card)
		}
	} else {
		clear(s.ClassCounts)
		for _, tab := range s.Counts {
			clear(tab)
		}
	}
	s.N = n
	return s
}

// SumThrough adds an FK's class-conditional counts into a feature of the
// table the FK references, through the FD FK → feature: every row with
// FK = rid has the feature value attr[rid], so for each class c and each
// rid whose count is nonzero
//
//	dst[c*card + attr[rid]] += fk[c*nFK + rid],  nFK = len(fk)/classes.
//
// dst and fk are laid out like Stats.Counts. This is the aggregation that
// makes factorized Naive Bayes statistics exact (see StatsFromDataset).
func SumThrough(dst, fk []int, classes int, attr []int32, card int) {
	nFK := len(fk) / classes
	for c := 0; c < classes; c++ {
		row := fk[c*nFK : (c+1)*nFK]
		out := dst[c*card : (c+1)*card]
		for rid, cnt := range row {
			if cnt != 0 {
				out[attr[rid]] += cnt
			}
		}
	}
}

// count tabulates feature f's class-conditional counts, once.
func (s *Stats) count(m *dataset.Design, f int) {
	if s.Counts[f] != nil {
		return
	}
	card := s.Cards[f]
	tab := make([]int, m.NumClasses*card)
	data := m.Features[f].Data
	for i, y := range m.Y {
		tab[int(y)*card+int(data[i])]++
	}
	s.Counts[f] = tab
}

// Model is a Naive Bayes model over a feature subset, backed by shared
// sufficient statistics. Predictions use Laplace (add-Alpha) smoothing, the
// standard remedy for RID values absent from the training instance that the
// paper adopts (§2.1 footnote 2). Features and Alpha are fixed when the model
// is built: its log-likelihood tables are computed from them.
type Model struct {
	stats *Stats
	// Features are the design-matrix column indices in use.
	Features []int
	// Alpha is the Laplace smoothing pseudo-count (default 1).
	Alpha float64
	// logPrior[c] caches log P(Y=c) with smoothing.
	logPrior []float64
	// logLik[i] is the log-likelihood table of Features[i] (see
	// logLikTable).
	logLik [][]float64
}

// score returns log P(c) + Σ_f log P(x_f | c) for one row, summing the
// features left to right.
func (mod *Model) score(m *dataset.Design, row, c int) float64 {
	score := mod.logPrior[c]
	for i, f := range mod.Features {
		score += mod.logLik[i][c*mod.stats.Cards[f]+int(m.Features[f].Data[row])]
	}
	return score
}

// Predict returns argmax_c log P(c) + Σ_f log P(x_f | c); the first class
// wins ties.
func (mod *Model) Predict(m *dataset.Design, row int) int32 {
	best := int32(0)
	bestScore := math.Inf(-1)
	for c := 0; c < mod.stats.NumClasses; c++ {
		if score := mod.score(m, row, c); score > bestScore {
			bestScore = score
			best = int32(c)
		}
	}
	return best
}

// checkSubset validates a feature subset and smoothing pseudo-count against
// the statistics: indices first, then alpha, which must be positive and
// finite (a NaN or +Inf alpha makes every score NaN).
func checkSubset(s *Stats, features []int, alpha float64) error {
	for _, f := range features {
		if f < 0 || f >= len(s.Counts) {
			return fmt.Errorf("nb: feature index %d out of range [0,%d)", f, len(s.Counts))
		}
	}
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return fmt.Errorf("nb: smoothing alpha must be positive and finite, got %v", alpha)
	}
	return nil
}

// logPriors appends the smoothed class log-priors log P(Y=c) to dst.
func logPriors(dst []float64, s *Stats, alpha float64) []float64 {
	dst = slices.Grow(dst, s.NumClasses)
	for c := 0; c < s.NumClasses; c++ {
		dst = append(dst, math.Log((float64(s.ClassCounts[c])+alpha)/(float64(s.N)+alpha*float64(s.NumClasses))))
	}
	return dst
}

// logLikTable appends feature f's smoothed log-likelihood table to dst,
// laid out like Stats.Counts: tab[c*card_f+v] = log P(x_f = v | Y = c)
// under add-alpha smoothing. It is the only place the per-value logarithms
// are taken; prediction is lookups and additions.
func logLikTable(dst []float64, s *Stats, f int, alpha float64) []float64 {
	card := s.Cards[f]
	dst = slices.Grow(dst, len(s.Counts[f]))
	for i, n := range s.Counts[f] {
		denom := float64(s.ClassCounts[i/card])
		dst = append(dst, math.Log((float64(n)+alpha)/(denom+alpha*float64(card))))
	}
	return dst
}

// ModelFromStats builds a model over the given feature subset without
// re-counting: one log-likelihood table per feature, O(Σ card_f × classes).
func ModelFromStats(s *Stats, features []int, alpha float64) (*Model, error) {
	if err := checkSubset(s, features, alpha); err != nil {
		return nil, err
	}
	modelAssemblies.Inc()
	mod := &Model{stats: s, Features: features, Alpha: alpha, logPrior: logPriors(nil, s, alpha)}
	mod.logLik = make([][]float64, len(features))
	for i, f := range features {
		mod.logLik[i] = logLikTable(nil, s, f, alpha)
	}
	return mod, nil
}

// Learner is the ml.Learner adapter for Naive Bayes. Zero value is not
// usable; construct with New.
type Learner struct {
	// Alpha is the Laplace smoothing pseudo-count.
	Alpha float64
}

// New returns a Naive Bayes learner with add-one smoothing.
func New() *Learner { return &Learner{Alpha: 1} }

// Name implements ml.Learner.
func (l *Learner) Name() string { return "naive-bayes" }

// Fit implements ml.Learner: it tabulates sufficient statistics over m for
// the subset's features only and assembles a model over them. The counts
// are integers, so the model equals one built from NewStats(m).
func (l *Learner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	if err := ml.CheckFeatures(m, features); err != nil {
		return nil, err
	}
	fitCalls.Inc()
	s := newStats(m)
	for _, f := range features {
		s.count(m, f)
	}
	return ModelFromStats(s, features, l.Alpha)
}
