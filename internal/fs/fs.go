// Package fs implements the feature selection methods the paper evaluates
// (§2.2, §5): sequential greedy wrappers (forward and backward selection),
// filters scored by mutual information and information gain ratio with the
// retained count tuned by holdout validation, and the embedded
// L1/L2-regularized logistic regression.
//
// All methods follow the paper's holdout protocol: models are trained on the
// training split and subsets compared by their error on the validation
// split; the caller reports final accuracy on the untouched test split.
// EvaluatePlan runs that whole protocol for one join plan on views of a
// dataset.SplitGather, one gather of JoinAll's columns in
// train‖validation‖test row order: every plan of a split views the same
// gather, so the split's rows are copied once for all its plans, and no
// evaluation step may write to a design column. Nothing else is shared
// between plans: each Select builds its own statistics and scorer, so a
// plan's measured selection time is its own search.
//
// Wrapper search over Naive Bayes uses the decomposability fast path
// (internal/ml/nb.SubsetScorer): sufficient statistics and per-feature
// log-likelihood tables are computed once, and each candidate that extends
// the previous subset or its prefix by one feature (forward selection's
// current+f, a filter's order[:k]) costs O(validation rows × classes),
// independent of the subset's size; any other subset (a backward removal)
// is rebuilt from the prior with one table lookup per (row, class,
// feature). The cost of greedy search therefore follows the number of
// subsets scored, which is how the paper's runtimes scale with the number
// of candidate features (Figure 7). Each candidate picks a validation row's
// class without a branch per class (see package nb).
// fs.subset_evaluations counts those candidates; no nb.Model is built for
// them, so nb.models_assembled does not move during selection.
package fs

import (
	"fmt"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
)

// Selection instrumentation: the per-run Evaluations counter generalized
// into process-wide metrics — total subset evaluations across all methods,
// completed selection runs, and the evaluations-per-run distribution.
var (
	evalCount  = obs.C("fs.subset_evaluations")
	selectRuns = obs.C("fs.selection_runs")
	evalHist   = obs.H("fs.evaluations_per_run")
)

// observeRun records one completed selection run's evaluation count.
func observeRun(evals int) {
	selectRuns.Inc()
	evalHist.Observe(int64(evals))
}

// Result is the outcome of one feature selection run.
type Result struct {
	// Features are the selected design-matrix column indices, in the
	// order the method chose them.
	Features []int
	// ValError is the validation error of the selected subset.
	ValError float64
	// Evaluations counts subset evaluations performed: a
	// hardware-independent proxy for the method's runtime.
	Evaluations int
}

// FeatureNames resolves the selected indices against a design matrix.
func (r Result) FeatureNames(m *dataset.Design) []string {
	names := make([]string, len(r.Features))
	for i, f := range r.Features {
		names[i] = m.Features[f].Name
	}
	return names
}

// Method is a feature selection algorithm.
type Method interface {
	// Name identifies the method in reports, e.g. "forward".
	Name() string
	// Select searches feature subsets of train/val for the learner.
	Select(l ml.Learner, train, val *dataset.Design) (Result, error)
}

// Evaluator scores candidate feature subsets by validation error. The
// generic implementation retrains via ml.Learner; the Naive Bayes
// implementation reuses precomputed sufficient statistics.
type Evaluator interface {
	// Eval returns the validation error of a model trained on the subset.
	Eval(features []int) (float64, error)
	// Count returns the number of Eval calls so far.
	Count() int
}

// NewEvaluator builds the best evaluator for the learner: the decomposable
// fast path when l is Naive Bayes, otherwise generic retraining.
func NewEvaluator(l ml.Learner, train, val *dataset.Design) Evaluator {
	return newEvaluator(l, train, val)
}

// evaluator is an Evaluator whose validation error can also be computed
// without counting an evaluation, so k-fold CV can average k of them as one.
type evaluator interface {
	Evaluator
	valError(features []int) (float64, error)
}

func newEvaluator(l ml.Learner, train, val *dataset.Design) evaluator {
	metric := ml.MetricFor(train.NumClasses)
	if nbl, ok := l.(*nb.Learner); ok {
		return &nbEvaluator{scorer: nb.NewSubsetScorer(nb.NewStats(train), nbl.Alpha, val), val: val, metric: metric}
	}
	return &genericEvaluator{l: l, train: train, val: val, metric: metric}
}

type genericEvaluator struct {
	l          ml.Learner
	train, val *dataset.Design
	metric     ml.Metric
	count      int
}

func (e *genericEvaluator) Eval(features []int) (float64, error) {
	e.count++
	evalCount.Inc()
	return e.valError(features)
}

func (e *genericEvaluator) valError(features []int) (float64, error) {
	mod, err := e.l.Fit(e.train, features)
	if err != nil {
		return 0, err
	}
	return e.metric(ml.PredictAll(mod, e.val), e.val.Y), nil
}

func (e *genericEvaluator) Count() int { return e.count }

type nbEvaluator struct {
	scorer *nb.SubsetScorer
	val    *dataset.Design
	metric ml.Metric
	count  int
}

func (e *nbEvaluator) Eval(features []int) (float64, error) {
	e.count++
	evalCount.Inc()
	return e.valError(features)
}

func (e *nbEvaluator) valError(features []int) (float64, error) {
	pred, err := e.scorer.Predict(features)
	if err != nil {
		return 0, err
	}
	return e.metric(pred, e.val.Y), nil
}

func (e *nbEvaluator) Count() int { return e.count }

// checkDesigns validates that train and val agree on schema.
func checkDesigns(train, val *dataset.Design) error {
	if train == nil || val == nil {
		return fmt.Errorf("fs: nil design matrix")
	}
	if train.NumFeatures() != val.NumFeatures() {
		return fmt.Errorf("fs: train has %d features, val has %d", train.NumFeatures(), val.NumFeatures())
	}
	if train.NumClasses != val.NumClasses {
		return fmt.Errorf("fs: train has %d classes, val has %d", train.NumClasses, val.NumClasses)
	}
	if train.NumRows() == 0 || val.NumRows() == 0 {
		return fmt.Errorf("fs: empty split (train %d rows, val %d rows)", train.NumRows(), val.NumRows())
	}
	return nil
}
