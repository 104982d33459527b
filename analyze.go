package hamlet

import (
	"fmt"
	"time"

	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/obs"
	"hamlet/internal/stats"
)

// Span is a node of the hierarchical trace attached to Report.Trace (see
// internal/obs): per-stage wall-clock timings and counters for the whole
// Analyze pipeline, renderable as text or JSON.
type Span = obs.Span

// minReliableElapsed is the wall-clock duration below which a measured
// feature-selection time is treated as timer noise: speedups computed from
// sub-millisecond timings say more about the clock than about the plans, so
// Analyze falls back to the Evaluations ratio (see Report.SpeedupBasis).
const minReliableElapsed = time.Millisecond

// Speedup-basis values reported in Report.SpeedupBasis.
const (
	// SpeedupWallClock means Report.Speedup is the ratio of measured
	// feature-selection wall-clock times (the paper's Figure 7 metric).
	SpeedupWallClock = "wall-clock"
	// SpeedupEvaluations means Report.Speedup is the ratio of subset
	// evaluation counts — the hardware-independent runtime proxy, used when
	// the measured times are below timer resolution.
	SpeedupEvaluations = "evaluations"
)

// PlanOutcome reports one join plan's end-to-end result: the selected
// features, the holdout test error of the model trained on them, and the
// feature-selection cost.
type PlanOutcome = fs.PlanOutcome

// Report is the result of Analyze: the paper's JoinAll-versus-JoinOpt
// comparison on one dataset.
type Report struct {
	// Dataset names the analyzed dataset.
	Dataset string
	// Metric is the error metric used ("zero-one" or "RMSE").
	Metric string
	// Decisions are the advisor's per-attribute-table verdicts.
	Decisions []Decision
	// JoinAll is the outcome of joining every attribute table.
	JoinAll PlanOutcome
	// JoinOpt is the outcome of the advisor's plan.
	JoinOpt PlanOutcome
	// Speedup is JoinAll's feature-selection cost over JoinOpt's, measured
	// on the basis recorded in SpeedupBasis.
	Speedup float64
	// SpeedupBasis documents how Speedup was computed: SpeedupWallClock
	// when both measured times are reliable, SpeedupEvaluations when the
	// run was too fast to time and the subset-evaluation ratio is used
	// instead, "" when neither basis is available.
	SpeedupBasis string
	// Trace is the span tree of the run: the advisor, the split's one
	// JoinAll gather, then per plan its view (materialize) vs selection vs
	// train/eval time, with per-stage counters.
	Trace *Span
}

// Analyze runs the paper's end-to-end pipeline on a normalized dataset: the
// advisor decides which joins are safe to avoid, then the feature selection
// method runs over both the JoinAll and JoinOpt designs with Naive Bayes
// under the 50/25/25 holdout protocol, and the report compares errors and
// runtimes. Both plans are views of one gather of JoinAll's columns over
// the split. The advisor may be nil for the paper's defaults.
func Analyze(d *Dataset, method FeatureSelector, adv *Advisor, seed uint64) (*Report, error) {
	if d == nil {
		return nil, fmt.Errorf("hamlet: nil dataset")
	}
	if method == nil {
		return nil, fmt.Errorf("hamlet: nil feature selection method")
	}
	if adv == nil {
		adv = NewAdvisor()
	}
	root := obs.StartSpan("analyze(" + d.Name + ")")
	defer root.End()
	sp := root.Child("advise")
	optPlan, decisions, err := adv.JoinOptPlan(d)
	sp.End()
	if err != nil {
		return nil, err
	}
	split, err := dataset.DefaultSplit(d.NumRows(), stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Dataset:   d.Name,
		Metric:    ml.MetricName(d.NumClasses()),
		Decisions: decisions,
		Trace:     root,
	}
	joinAll := d.JoinAllPlan()
	sp = root.Child("gather")
	g, err := d.GatherSplit(joinAll, split)
	sp.End()
	if err != nil {
		return nil, err
	}
	rep.JoinAll, err = fs.EvaluatePlan(g, joinAll, method, root.Child("plan(JoinAll)"))
	if err != nil {
		return nil, err
	}
	rep.JoinOpt, err = fs.EvaluatePlan(g, optPlan, method, root.Child("plan(JoinOpt)"))
	if err != nil {
		return nil, err
	}
	rep.Speedup, rep.SpeedupBasis = speedup(rep.JoinAll, rep.JoinOpt)
	return rep, nil
}

// speedup compares the two plans' feature-selection costs. Wall-clock is
// the paper's metric, but on datasets small enough that selection finishes
// below timer resolution the ratio of two noise-dominated timings is
// misleading (and used to surface as Speedup == 0); the subset-evaluation
// ratio is the hardware-independent fallback.
func speedup(all, opt PlanOutcome) (float64, string) {
	if all.Elapsed >= minReliableElapsed && opt.Elapsed >= minReliableElapsed {
		return float64(all.Elapsed) / float64(opt.Elapsed), SpeedupWallClock
	}
	if opt.Evaluations > 0 {
		return float64(all.Evaluations) / float64(opt.Evaluations), SpeedupEvaluations
	}
	return 0, ""
}

// EvaluatePlan runs one feature selection pass over the given plan and
// reports the selected subset's holdout test error. It shares its split
// logic and its plan evaluator with Analyze but lets callers compare
// arbitrary plans (e.g. the robustness study of Figure 8(A)); it gathers
// only p's columns.
func EvaluatePlan(d *Dataset, p Plan, method FeatureSelector, seed uint64) (PlanOutcome, error) {
	if d == nil {
		return PlanOutcome{}, fmt.Errorf("hamlet: nil dataset")
	}
	if method == nil {
		return PlanOutcome{}, fmt.Errorf("hamlet: nil feature selection method")
	}
	split, err := dataset.DefaultSplit(d.NumRows(), stats.NewRNG(seed))
	if err != nil {
		return PlanOutcome{}, err
	}
	g, err := d.GatherSplit(p, split)
	if err != nil {
		return PlanOutcome{}, err
	}
	return fs.EvaluatePlan(g, p, method, nil)
}
