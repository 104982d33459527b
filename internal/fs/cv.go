package fs

import (
	"fmt"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// The paper's §2.2 notes that wrapper search can score subsets either by
// holdout validation error or by k-fold cross-validation error, and adopts
// holdout for simplicity. CrossValidated wraps any wrapper-style Method so
// its subset evaluations use k-fold CV over the combined train+validation
// data instead — more stable on small datasets at k× the cost.

// CrossValidated adapts a wrapper method to k-fold cross-validation.
type CrossValidated struct {
	// Inner is the wrapped method (Forward or Backward).
	Inner Method
	// K is the number of folds (≥ 2).
	K int
	// Seed drives the fold assignment.
	Seed uint64
}

// Name implements Method.
func (c CrossValidated) Name() string {
	return fmt.Sprintf("%s-cv%d", c.Inner.Name(), c.K)
}

// cvEvaluator scores subsets by k-fold CV error over the pooled data: the
// mean of one holdout evaluator per fold, so the Naive Bayes fast path (one
// subset scorer per fold) and generic retraining are the holdout ones.
type cvEvaluator struct {
	folds []evaluator
	count int
}

func newCVEvaluator(l ml.Learner, pool *dataset.Design, k int, seed uint64) (*cvEvaluator, error) {
	folds, err := dataset.NewKFold(pool.NumRows(), k, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	e := &cvEvaluator{}
	for i := 0; i < k; i++ {
		trIdx, vaIdx, err := folds.Fold(i)
		if err != nil {
			return nil, err
		}
		e.folds = append(e.folds, newEvaluator(l, pool.SelectRows(trIdx), pool.SelectRows(vaIdx)))
	}
	return e, nil
}

func (e *cvEvaluator) Eval(features []int) (float64, error) {
	e.count++
	evalCount.Inc()
	total := 0.0
	for _, fold := range e.folds {
		v, err := fold.valError(features)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total / float64(len(e.folds)), nil
}

func (e *cvEvaluator) Count() int { return e.count }

// Select implements Method: it pools train and val, then reruns the inner
// wrapper's greedy search against the CV evaluator. Only Forward and
// Backward are supported (filters tune k against a single validation set by
// construction).
func (c CrossValidated) Select(l ml.Learner, train, val *dataset.Design) (Result, error) {
	if err := checkDesigns(train, val); err != nil {
		return Result{}, err
	}
	if c.K < 2 {
		return Result{}, fmt.Errorf("fs: cross-validation needs K ≥ 2, got %d", c.K)
	}
	// Pool the two splits: CV replaces the holdout protocol.
	n := train.NumRows() + val.NumRows()
	idxTrain := make([]int, train.NumRows())
	for i := range idxTrain {
		idxTrain[i] = i
	}
	pool := &dataset.Design{NumClasses: train.NumClasses}
	pool.Y = append(append([]int32(nil), train.Y...), val.Y...)
	pool.Features = make([]dataset.Feature, train.NumFeatures())
	for f := range pool.Features {
		src, extra := train.Features[f], val.Features[f]
		data := make([]int32, 0, n)
		data = append(append(data, src.Data...), extra.Data...)
		pool.Features[f] = dataset.Feature{Name: src.Name, Card: src.Card, Data: data, Source: src.Source, IsFK: src.IsFK}
	}
	ev, err := newCVEvaluator(l, pool, c.K, c.Seed)
	if err != nil {
		return Result{}, err
	}
	switch c.Inner.(type) {
	case Forward:
		return forwardWith(ev, pool.NumFeatures())
	case Backward:
		return backwardWith(ev, pool.NumFeatures())
	}
	return Result{}, fmt.Errorf("fs: cross-validation supports Forward and Backward, not %s", c.Inner.Name())
}

// forwardWith runs greedy forward search against an arbitrary evaluator.
func forwardWith(ev Evaluator, d int) (Result, error) {
	inSet := make([]bool, d)
	var current []int
	best, err := ev.Eval(nil)
	if err != nil {
		return Result{}, err
	}
	for {
		pick := -1
		pickErr := best
		for f := 0; f < d; f++ {
			if inSet[f] {
				continue
			}
			cand := append(append([]int(nil), current...), f)
			e, err := ev.Eval(cand)
			if err != nil {
				return Result{}, err
			}
			if e < pickErr {
				pickErr, pick = e, f
			}
		}
		if pick < 0 {
			break
		}
		inSet[pick] = true
		current = append(current, pick)
		best = pickErr
	}
	observeRun(ev.Count())
	return Result{Features: current, ValError: best, Evaluations: ev.Count()}, nil
}

// backwardWith runs greedy backward search against an arbitrary evaluator.
func backwardWith(ev Evaluator, d int) (Result, error) {
	current := make([]int, d)
	for f := range current {
		current[f] = f
	}
	best, err := ev.Eval(current)
	if err != nil {
		return Result{}, err
	}
	for len(current) > 0 {
		pick := -1
		pickErr := best
		for pos := range current {
			cand := make([]int, 0, len(current)-1)
			cand = append(cand, current[:pos]...)
			cand = append(cand, current[pos+1:]...)
			e, err := ev.Eval(cand)
			if err != nil {
				return Result{}, err
			}
			if e < pickErr {
				pickErr, pick = e, pos
			}
		}
		if pick < 0 {
			break
		}
		current = append(current[:pick], current[pick+1:]...)
		best = pickErr
	}
	observeRun(ev.Count())
	return Result{Features: current, ValError: best, Evaluations: ev.Count()}, nil
}
