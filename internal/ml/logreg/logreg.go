// Package logreg implements multinomial (softmax) logistic regression over
// one-hot-encoded nominal features with L1 or L2 regularization — the
// embedded feature selection method the paper evaluates in §5.3 (Figure 9,
// where the paper used R's glmnet).
//
// Features are nominal, so each example activates exactly one indicator per
// feature (or none, for the last category under the |D_F|−1 recoding of
// §3.2). The trainer exploits this sparsity: the per-example gradient touches
// only numClasses × numFeatures weights. Regularization is applied as an
// epoch-level proximal step — soft-thresholding for L1 (which drives
// irrelevant indicator weights to exactly zero, the embedded selection
// effect), multiplicative shrinkage for L2 — which keeps the inner loop
// sparse while preserving the qualitative behaviour the paper relies on:
// under L1, models trained with and without redundant foreign features end
// up with comparable error, and L2 underperforms L1 in this sparse regime.
package logreg

import (
	"fmt"
	"math"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// Penalty selects the regularizer.
type Penalty int

const (
	// L2 is ridge (squared-norm) regularization.
	L2 Penalty = iota
	// L1 is lasso (absolute-norm) regularization; it zeroes coefficients,
	// performing implicit feature selection (§2.2).
	L1
)

// String implements fmt.Stringer.
func (p Penalty) String() string {
	if p == L1 {
		return "L1"
	}
	return "L2"
}

// Config holds training hyperparameters. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Penalty selects L1 or L2 regularization.
	Penalty Penalty
	// Lambda is the regularization strength.
	Lambda float64
	// LearningRate is the initial SGD step size; it decays as 1/(1+t).
	LearningRate float64
	// Epochs is the number of passes over the training data.
	Epochs int
	// Seed drives the shuffling order.
	Seed uint64
}

// DefaultConfig returns the hyperparameters used across the Hamlet-Go
// experiments; they were chosen once on the simulation data and never tuned
// per dataset, mirroring the paper's use of glmnet defaults.
func DefaultConfig(p Penalty) Config {
	return Config{Penalty: p, Lambda: 1e-4, LearningRate: 0.5, Epochs: 20, Seed: 1}
}

// Learner is the ml.Learner adapter for logistic regression.
type Learner struct {
	// Config holds the training hyperparameters.
	Config Config
}

// New returns a logistic regression learner with DefaultConfig(p).
func New(p Penalty) *Learner { return &Learner{Config: DefaultConfig(p)} }

// Name implements ml.Learner.
func (l *Learner) Name() string { return "logreg-" + l.Config.Penalty.String() }

// Model is a trained softmax regression model.
type Model struct {
	// W holds one weight vector per class over the one-hot dimensions:
	// W[c*dims+d].
	W []float64
	// B holds one intercept per class.
	B []float64
	// Dims is the one-hot dimensionality.
	Dims int
	// NumClasses is the target cardinality.
	NumClasses int
	// Features are the design-matrix column indices in use.
	Features []int
	offsets  []int
	cards    []int
}

// activeDims computes the active one-hot dimensions of row i, writing them to
// dst (one entry per feature whose value is not the last category).
func (mod *Model) activeDims(m *dataset.Design, i int, dst []int) []int {
	dst = dst[:0]
	for j, fi := range mod.Features {
		v := int(m.Features[fi].Data[i])
		if v < mod.cards[j]-1 {
			dst = append(dst, mod.offsets[j]+v)
		}
	}
	return dst
}

// scores computes the per-class linear scores of the active dimensions.
func (mod *Model) scores(active []int, out []float64) {
	for c := 0; c < mod.NumClasses; c++ {
		s := mod.B[c]
		base := c * mod.Dims
		for _, d := range active {
			s += mod.W[base+d]
		}
		out[c] = s
	}
}

// Predict implements ml.Model.
func (mod *Model) Predict(m *dataset.Design, row int) int32 {
	active := mod.activeDims(m, row, make([]int, 0, len(mod.Features)))
	sc := make([]float64, mod.NumClasses)
	mod.scores(active, sc)
	best, bestV := 0, math.Inf(-1)
	for c, v := range sc {
		if v > bestV {
			bestV, best = v, c
		}
	}
	return int32(best)
}

// FeatureActive reports whether any indicator weight of the given design
// feature (by its position in mod.Features) survives L1 at the tolerance:
// the embedded analogue of "the feature was selected".
func (mod *Model) FeatureActive(j int, tol float64) bool {
	lo := mod.offsets[j]
	hi := lo + mod.cards[j] - 1
	for c := 0; c < mod.NumClasses; c++ {
		base := c * mod.Dims
		for d := lo; d < hi; d++ {
			if math.Abs(mod.W[base+d]) > tol {
				return true
			}
		}
	}
	return false
}

func softmaxInPlace(sc []float64) {
	maxV := math.Inf(-1)
	for _, v := range sc {
		if v > maxV {
			maxV = v
		}
	}
	total := 0.0
	for c, v := range sc {
		sc[c] = math.Exp(v - maxV)
		total += sc[c]
	}
	for c := range sc {
		sc[c] /= total
	}
}

// Fit implements ml.Learner.
func (l *Learner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	if err := ml.CheckFeatures(m, features); err != nil {
		return nil, err
	}
	cfg := l.Config
	if cfg.Epochs <= 0 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("logreg: invalid config: epochs=%d lr=%v", cfg.Epochs, cfg.LearningRate)
	}
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", cfg.Lambda)
	}
	mod := &Model{NumClasses: m.NumClasses, Features: features}
	mod.offsets = make([]int, len(features))
	mod.cards = make([]int, len(features))
	dims := 0
	for j, fi := range features {
		mod.offsets[j] = dims
		mod.cards[j] = m.Features[fi].Card
		dims += m.Features[fi].Card - 1
	}
	mod.Dims = dims
	mod.W = make([]float64, m.NumClasses*dims)
	mod.B = make([]float64, m.NumClasses)

	n := m.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("logreg: empty training set")
	}
	rng := stats.NewRNG(cfg.Seed)
	active := make([]int, 0, len(features))
	sc := make([]float64, m.NumClasses)
	order := rng.Perm(n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearningRate / (1 + float64(epoch))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			active = mod.activeDims(m, i, active)
			mod.scores(active, sc)
			softmaxInPlace(sc)
			y := int(m.Y[i])
			for c := 0; c < m.NumClasses; c++ {
				g := sc[c]
				if c == y {
					g -= 1
				}
				step := lr * g
				mod.B[c] -= step
				base := c * dims
				for _, d := range active {
					mod.W[base+d] -= step
				}
			}
		}
		// Epoch-level proximal regularization step over all weights
		// (intercepts are never penalized). The effective strength is
		// lr·lambda·n, matching the aggregate of per-example steps.
		if cfg.Lambda > 0 {
			strength := lr * cfg.Lambda * float64(n)
			switch cfg.Penalty {
			case L1:
				for k, w := range mod.W {
					switch {
					case w > strength:
						mod.W[k] = w - strength
					case w < -strength:
						mod.W[k] = w + strength
					default:
						mod.W[k] = 0
					}
				}
			case L2:
				shrink := 1 / (1 + strength)
				for k := range mod.W {
					mod.W[k] *= shrink
				}
			}
		}
	}
	for _, w := range mod.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("logreg: training diverged (non-finite weights); lower the learning rate")
		}
	}
	return mod, nil
}
