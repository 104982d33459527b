package fs

import (
	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
)

// Embedded is the paper's embedded feature selection (§2.2, §5.3): L1- or
// L2-regularized logistic regression over all candidate features, with the
// regularization strength tuned on the validation split. Under L1 the
// selected features are those retaining at least one nonzero indicator
// weight.
type Embedded struct {
	// Penalty selects L1 or L2.
	Penalty logreg.Penalty
	// Lambdas is the grid searched over the validation split; when empty,
	// DefaultLambdas is used.
	Lambdas []float64
	// Tol is the weight magnitude below which an indicator counts as zero
	// when reporting active features; defaults to 1e-6.
	Tol float64
}

// DefaultLambdas is the regularization grid used when Embedded.Lambdas is
// empty.
var DefaultLambdas = []float64{1e-5, 1e-4, 1e-3}

// Name implements Method.
func (e Embedded) Name() string { return "embedded-" + e.Penalty.String() }

// Select implements Method. The learner argument is ignored: the embedded
// method is wired to its own logistic regression (that is what "embedded"
// means); passing a non-nil learner of another type is not an error, to let
// harness code treat all methods uniformly.
func (e Embedded) Select(_ ml.Learner, train, val *dataset.Design) (Result, error) {
	best, bestErr, evals, err := e.search(train, val)
	if err != nil {
		return Result{}, err
	}
	tol := e.Tol
	if tol == 0 {
		tol = 1e-6
	}
	var active []int
	for j := 0; j < train.NumFeatures(); j++ {
		if best.FeatureActive(j, tol) {
			active = append(active, j)
		}
	}
	observeRun(evals)
	return Result{Features: active, ValError: bestErr, Evaluations: evals}, nil
}

// FitBest runs Select's λ search and returns the winning model, for callers
// that need the model itself (e.g. test-error reporting).
func (e Embedded) FitBest(train, val *dataset.Design) (*logreg.Model, error) {
	best, _, _, err := e.search(train, val)
	return best, err
}

// search fits the penalized model on all of train's features at every λ of
// the grid and returns the one with the lowest validation error (the first
// on a tie), that error and the number of fits.
func (e Embedded) search(train, val *dataset.Design) (*logreg.Model, float64, int, error) {
	if err := checkDesigns(train, val); err != nil {
		return nil, 0, 0, err
	}
	lambdas := e.Lambdas
	if len(lambdas) == 0 {
		lambdas = DefaultLambdas
	}
	all := make([]int, train.NumFeatures())
	for i := range all {
		all[i] = i
	}
	metric := ml.MetricFor(train.NumClasses)
	var best *logreg.Model
	bestErr := 0.0
	for i, lam := range lambdas {
		l := logreg.New(e.Penalty)
		l.Config.Lambda = lam
		mod, err := l.Fit(train, all)
		if err != nil {
			return nil, 0, 0, err
		}
		lm := mod.(*logreg.Model)
		errV := metric(ml.PredictAll(lm, val), val.Y)
		if i == 0 || errV < bestErr {
			best, bestErr = lm, errV
		}
	}
	return best, bestErr, len(lambdas), nil
}
