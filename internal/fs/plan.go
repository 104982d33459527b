package fs

import (
	"time"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
)

// PlanOutcome reports one join plan's end-to-end result: the selected
// features, the holdout test error of the model trained on them, and the
// feature-selection cost.
type PlanOutcome struct {
	// Plan is the evaluated join plan.
	Plan dataset.Plan
	// InputFeatures is the number of candidate features after the plan's
	// joins.
	InputFeatures int
	// Selected names the features the method kept.
	Selected []string
	// ValError is the validation error of the selected subset.
	ValError float64
	// TestError is the final holdout test error.
	TestError float64
	// Elapsed is the wall-clock feature selection time.
	Elapsed time.Duration
	// Evaluations counts subset evaluations (a hardware-independent
	// runtime proxy).
	Evaluations int
}

// EvaluatePlan is the paper's end-to-end protocol for one join plan (§5,
// Figure 7): it views plan p's training, validation and test rows in the
// gather g (dataset.SplitGather.Designs), runs the method with Naive Bayes
// over the training and validation rows, and scores the selected subset on
// the test rows. p must be a column subset of g's plan; every plan is a
// subset of JoinAll, so one JoinAll gather serves every plan of a split.
// Each stage is recorded as a child of sp, which it ends; sp may be nil for
// untraced runs. hamlet.Analyze, hamlet.EvaluatePlan and the figure runners
// all evaluate plans here.
func EvaluatePlan(g *dataset.SplitGather, p dataset.Plan, method Method, sp *obs.Span) (PlanOutcome, error) {
	defer sp.End()
	mat := sp.Child("materialize")
	train, val, test, err := g.Designs(p)
	mat.End()
	if err != nil {
		return PlanOutcome{}, err
	}
	inputFeatures := train.NumFeatures()
	mat.Add("rows", int64(train.NumRows()+val.NumRows()+test.NumRows()))
	mat.Add("features", int64(inputFeatures))
	sel := sp.Child("select(" + method.Name() + ")")
	start := time.Now()
	res, err := method.Select(nb.New(), train, val)
	elapsed := time.Since(start)
	sel.End()
	if err != nil {
		return PlanOutcome{}, err
	}
	sel.Add("evaluations", int64(res.Evaluations))
	sel.Add("selected", int64(len(res.Features)))
	te := sp.Child("train-eval")
	testErr, err := ml.Evaluate(nb.New(), train, test, res.Features)
	te.End()
	if err != nil {
		return PlanOutcome{}, err
	}
	sp.Add("evaluations", int64(res.Evaluations))
	sp.Add("input_features", int64(inputFeatures))
	return PlanOutcome{
		Plan:          p,
		InputFeatures: inputFeatures,
		Selected:      res.FeatureNames(train),
		ValError:      res.ValError,
		TestError:     testErr,
		Elapsed:       elapsed,
		Evaluations:   res.Evaluations,
	}, nil
}
