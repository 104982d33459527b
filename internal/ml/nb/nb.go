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
package nb

import (
	"fmt"
	"math"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/obs"
)

// Naive Bayes instrumentation: full sufficient-statistics tabulations (the
// expensive counting pass), Model builds from statistics (ModelFromStats,
// so every Fit; subset scoring in wrapper search builds no Model and is
// counted by fs.subset_evaluations instead), and Learner.Fit calls.
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
	// taking value v.
	Counts [][]int
	// Cards[f] is feature f's cardinality.
	Cards []int
}

// NewStats tabulates sufficient statistics for every feature of m.
func NewStats(m *dataset.Design) *Stats {
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
		card := m.Features[f].Card
		s.Cards[f] = card
		tab := make([]int, m.NumClasses*card)
		data := m.Features[f].Data
		for i, y := range m.Y {
			tab[int(y)*card+int(data[i])]++
		}
		s.Counts[f] = tab
	}
	return s
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

// Posterior returns the normalized class posterior for the given row;
// useful for tests and calibration studies.
func (mod *Model) Posterior(m *dataset.Design, row int) []float64 {
	logs := make([]float64, mod.stats.NumClasses)
	maxLog := math.Inf(-1)
	for c := range logs {
		logs[c] = mod.score(m, row, c)
		if logs[c] > maxLog {
			maxLog = logs[c]
		}
	}
	total := 0.0
	for c := range logs {
		logs[c] = math.Exp(logs[c] - maxLog)
		total += logs[c]
	}
	for c := range logs {
		logs[c] /= total
	}
	return logs
}

// checkSubset validates a feature subset and smoothing pseudo-count against
// the statistics: indices first, then alpha.
func checkSubset(s *Stats, features []int, alpha float64) error {
	for _, f := range features {
		if f < 0 || f >= len(s.Counts) {
			return fmt.Errorf("nb: feature index %d out of range [0,%d)", f, len(s.Counts))
		}
	}
	if alpha <= 0 {
		return fmt.Errorf("nb: smoothing alpha must be positive, got %v", alpha)
	}
	return nil
}

// logPriors returns the smoothed class log-priors log P(Y=c).
func logPriors(s *Stats, alpha float64) []float64 {
	out := make([]float64, s.NumClasses)
	for c := range out {
		out[c] = math.Log((float64(s.ClassCounts[c]) + alpha) / (float64(s.N) + alpha*float64(s.NumClasses)))
	}
	return out
}

// logLikTable returns feature f's smoothed log-likelihood table, laid out
// like Stats.Counts: tab[c*card_f+v] = log P(x_f = v | Y = c) under
// add-alpha smoothing. It is the only place the per-value logarithms are
// taken; prediction is lookups and additions.
func logLikTable(s *Stats, f int, alpha float64) []float64 {
	card := s.Cards[f]
	tab := make([]float64, len(s.Counts[f]))
	for i, n := range s.Counts[f] {
		denom := float64(s.ClassCounts[i/card])
		tab[i] = math.Log((float64(n) + alpha) / (denom + alpha*float64(card)))
	}
	return tab
}

// ModelFromStats builds a model over the given feature subset without
// re-counting: one log-likelihood table per feature, O(Σ card_f × classes).
func ModelFromStats(s *Stats, features []int, alpha float64) (*Model, error) {
	if err := checkSubset(s, features, alpha); err != nil {
		return nil, err
	}
	modelAssemblies.Inc()
	mod := &Model{stats: s, Features: features, Alpha: alpha, logPrior: logPriors(s, alpha)}
	mod.logLik = make([][]float64, len(features))
	for i, f := range features {
		mod.logLik[i] = logLikTable(s, f, alpha)
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

// Fit implements ml.Learner: it tabulates sufficient statistics over m and
// assembles a model over the subset.
func (l *Learner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	if err := ml.CheckFeatures(m, features); err != nil {
		return nil, err
	}
	fitCalls.Inc()
	return ModelFromStats(NewStats(m), features, l.Alpha)
}
