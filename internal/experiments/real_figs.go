package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// Methods returns the four feature selection methods of Figure 7 in the
// paper's order: two wrappers, two filters.
func Methods() []fs.Method {
	return []fs.Method{fs.Forward{}, fs.Backward{}, fs.MIFilter(), fs.IGRFilter()}
}

// prepared bundles a generated mimic with its holdout split, shared across
// all plans and methods of one dataset so comparisons are paired, plus the
// budget's observability hooks for per-run progress and spans.
type prepared struct {
	spec  synth.MimicSpec
	data  *dataset.Dataset
	split *dataset.Split
	prog  *obs.Progress
	trace *obs.Span
}

func prepare(spec synth.MimicSpec, b Budget, seed uint64) (*prepared, error) {
	sp := b.Trace.Child("generate(" + spec.Name + ")")
	ds, err := spec.Generate(b.MimicScale, seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.Add("rows", int64(ds.NumRows()))
	split, err := dataset.DefaultSplit(ds.NumRows(), stats.NewRNG(seed+1))
	if err != nil {
		return nil, err
	}
	return &prepared{spec: spec, data: ds, split: split, prog: b.Progress, trace: b.Trace}, nil
}

// runFS evaluates one (plan, method) pair end to end through the shared
// plan evaluator, under a span named for the figure row and one progress
// step.
func (p *prepared) runFS(plan dataset.Plan, method fs.Method) (fs.PlanOutcome, error) {
	defer p.prog.Step(1)
	sp := p.trace.Child(fmt.Sprintf("%s: select(%s, tables=%d)", p.spec.Name, method.Name(), tablesInPlan(plan)))
	return fs.EvaluatePlan(p.data, plan, method, p.split, sp)
}

// joinOpt computes the paper's JoinOpt plan for the dataset via the TR rule.
func (p *prepared) joinOpt() (dataset.Plan, []core.Decision, error) {
	return core.NewAdvisor().JoinOptPlan(p.data)
}

// tablesInPlan counts the base tables feeding a plan's design (S plus the
// joined attribute tables), the "#Tables in input" of Figure 7.
func tablesInPlan(p dataset.Plan) int { return 1 + len(p.JoinFKs) }

// RunFig6 regenerates the Figure 6 dataset-statistics table for the mimics
// at the budget's scale (scale 1 reproduces the paper's counts exactly).
func RunFig6(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: dataset statistics (mimics at scale %g)", b.MimicScale),
		Columns: []string{"Dataset", "#Y", "n_S", "d_S", "k", "k'", "(n_Ri, d_Ri)"},
	}
	for _, spec := range synth.Mimics() {
		nS, dS, k, kPrime, attrs := spec.Stats(b.MimicScale)
		t.Add(spec.Name, d(spec.Classes), d(nS), d(dS), d(k), d(kPrime), strings.Join(attrs, ", "))
	}
	return &Result{ID: "fig6", Tables: []*Table{t}}, nil
}

// RunFig7 regenerates Figure 7: for every dataset and feature selection
// method, the holdout test error and feature-selection runtime of JoinAll
// versus JoinOpt, plus the number of input tables and the selected features.
func RunFig7(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	errT := &Table{Title: "Figure 7(A): holdout test error after feature selection",
		Columns: []string{"Dataset", "Method", "Metric", "JoinAll", "JoinOpt", "TablesAll", "TablesOpt"}}
	rtT := &Table{Title: "Figure 7(B): feature selection runtime",
		Columns: []string{"Dataset", "Method", "JoinAll_ms", "JoinOpt_ms", "Speedup", "EvalsAll", "EvalsOpt", "FeatsAll", "FeatsOpt"}}
	selT := &Table{Title: "Figure 7: output feature sets (appendix F)",
		Columns: []string{"Dataset", "Method", "Plan", "Selected"}}
	b.Progress.AddTotal(int64(len(synth.Mimics()) * len(Methods()) * 2))
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+20+uint64(si))
		if err != nil {
			return nil, err
		}
		joinAll := p.data.JoinAllPlan()
		joinOpt, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		for _, method := range Methods() {
			all, err := p.runFS(joinAll, method)
			if err != nil {
				return nil, err
			}
			opt, err := p.runFS(joinOpt, method)
			if err != nil {
				return nil, err
			}
			errT.Add(spec.Name, method.Name(), ml.MetricName(spec.Classes),
				f(all.TestError), f(opt.TestError), d(tablesInPlan(joinAll)), d(tablesInPlan(joinOpt)))
			speedup := float64(all.Elapsed) / float64(maxDuration(opt.Elapsed, time.Microsecond))
			rtT.Add(spec.Name, method.Name(),
				fmt.Sprintf("%.2f", float64(all.Elapsed)/1e6),
				fmt.Sprintf("%.2f", float64(opt.Elapsed)/1e6),
				fmt.Sprintf("%.1fx", speedup),
				d(all.Evaluations), d(opt.Evaluations), d(all.InputFeatures), d(opt.InputFeatures))
			selT.Add(spec.Name, method.Name(), "JoinAll", strings.Join(all.Selected, " "))
			selT.Add(spec.Name, method.Name(), "JoinOpt", strings.Join(opt.Selected, " "))
		}
	}
	return &Result{ID: "fig7", Tables: []*Table{errT, rtT, selT}}, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// subsetPlans enumerates every join-subset plan over the dataset's
// closed-domain FKs (open-domain tables are always joined), labeled the way
// Figure 8(A) labels them: "NoJoins", "JoinAll", or the avoided FK set.
func subsetPlans(ds *dataset.Dataset) []struct {
	Label string
	Plan  dataset.Plan
} {
	var closed, open []string
	for _, at := range ds.Attrs {
		if at.ClosedDomain {
			closed = append(closed, at.FK)
		} else {
			open = append(open, at.FK)
		}
	}
	n := len(closed)
	out := make([]struct {
		Label string
		Plan  dataset.Plan
	}, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		var joined []string
		var avoided []string
		for i, fk := range closed {
			if mask&(1<<i) != 0 {
				joined = append(joined, fk)
			} else {
				avoided = append(avoided, fk)
			}
		}
		label := "avoid{" + strings.Join(avoided, ",") + "}"
		if len(avoided) == 0 {
			label = "JoinAll"
		} else if len(avoided) == n {
			label = "NoJoins"
		}
		out = append(out, struct {
			Label string
			Plan  dataset.Plan
		}{label, dataset.Plan{JoinFKs: append(append([]string(nil), joined...), open...)}})
	}
	return out
}

// RunFig8A regenerates Figure 8(A): the robustness study. For every dataset
// and every join-subset plan, the holdout test errors under forward and
// backward selection, with the plan JoinOpt chose marked.
func RunFig8A(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 8(A): robustness — test error of every join-subset plan",
		Columns: []string{"Dataset", "Plan", "FS", "BS", "ChosenByJoinOpt"}}
	for si, spec := range synth.Mimics() {
		if spec.Name == "Expedia" {
			// The paper omits Expedia here: it has only one closed-domain
			// FK, so Figure 7 already covers both plans.
			continue
		}
		p, err := prepare(spec, b, b.Seed+40+uint64(si))
		if err != nil {
			return nil, err
		}
		optPlan, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		optKey := planKey(optPlan)
		b.Progress.AddTotal(int64(2 * len(subsetPlans(p.data))))
		for _, sp := range subsetPlans(p.data) {
			fsRunF, err := p.runFS(sp.Plan, fs.Forward{})
			if err != nil {
				return nil, err
			}
			fsRunB, err := p.runFS(sp.Plan, fs.Backward{})
			if err != nil {
				return nil, err
			}
			chosen := ""
			if planKey(sp.Plan) == optKey {
				chosen = "*"
			}
			t.Add(spec.Name, sp.Label, f(fsRunF.TestError), f(fsRunB.TestError), chosen)
		}
	}
	return &Result{ID: "fig8a", Tables: []*Table{t}}, nil
}

// planKey canonicalizes a plan's joined-FK set for comparison.
func planKey(p dataset.Plan) string {
	fks := append([]string(nil), p.JoinFKs...)
	for i := 1; i < len(fks); i++ {
		for j := i; j > 0 && fks[j] < fks[j-1]; j-- {
			fks[j], fks[j-1] = fks[j-1], fks[j]
		}
	}
	return strings.Join(fks, ",")
}

// RunFig8B regenerates Figure 8(B): the sensitivity study. For every
// closed-domain FK, its TR and worst-case ROR, the verdicts at the default
// (ρ=2.5, τ=20) and relaxed (ρ=4.2, τ=10) thresholds, and the overall
// ROR↔1/√TR correlation across the attribute tables.
func RunFig8B(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 8(B): sensitivity — per-table TR and ROR vs thresholds",
		Columns: []string{"Dataset", "Attr", "TR", "ROR", "1/sqrt(TR)", "avoid@default", "avoid@relaxed"}}
	var rors, inv []float64
	def, rel := core.NewAdvisor(), core.NewAdvisor()
	rel.Thresholds = core.RelaxedThresholds
	for si, spec := range synth.Mimics() {
		ds, err := spec.Generate(b.MimicScale, b.Seed+60+uint64(si))
		if err != nil {
			return nil, err
		}
		defDecs, err := def.Decide(ds)
		if err != nil {
			return nil, err
		}
		relDecs, err := rel.Decide(ds)
		if err != nil {
			return nil, err
		}
		for i, dec := range defDecs {
			if !dec.Considered {
				continue
			}
			rors = append(rors, dec.ROR)
			inv = append(inv, 1/math.Sqrt(dec.TR))
			t.Add(spec.Name, dec.Attr, f(dec.TR), f(dec.ROR), f(1/math.Sqrt(dec.TR)),
				fmt.Sprintf("%v", dec.Avoid), fmt.Sprintf("%v", relDecs[i].Avoid))
		}
	}
	sum := &Table{Title: "Figure 8(B) summary", Columns: []string{"quantity", "value"}}
	sum.Add("Pearson(ROR, 1/sqrt(TR)) across attribute tables", f(stats.Pearson(rors, inv)))
	return &Result{ID: "fig8b", Tables: []*Table{t, sum}}, nil
}

// RunFig8C regenerates Figure 8(C): JoinOpt versus JoinAllNoFK (dropping all
// closed-domain foreign keys a priori) under forward and backward selection.
func RunFig8C(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 8(C): JoinOpt vs JoinAllNoFK (drop all FKs a priori)",
		Columns: []string{"Dataset", "Method", "JoinOpt", "JoinAllNoFK"}}
	b.Progress.AddTotal(int64(len(synth.Mimics()) * 2 * 2))
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+80+uint64(si))
		if err != nil {
			return nil, err
		}
		optPlan, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		noFK := p.data.JoinAllNoFKPlan()
		for _, method := range []fs.Method{fs.Forward{}, fs.Backward{}} {
			opt, err := p.runFS(optPlan, method)
			if err != nil {
				return nil, err
			}
			drop, err := p.runFS(noFK, method)
			if err != nil {
				return nil, err
			}
			t.Add(spec.Name, method.Name(), f(opt.TestError), f(drop.TestError))
		}
	}
	return &Result{ID: "fig8c", Tables: []*Table{t}}, nil
}

// RunFig9 regenerates Figure 9: logistic regression with the embedded L1 and
// L2 feature selection, JoinAll versus JoinOpt, on every dataset.
func RunFig9(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 9: logistic regression with L1/L2 regularization",
		Columns: []string{"Dataset", "Metric", "L1_JoinAll", "L1_JoinOpt", "L2_JoinAll", "L2_JoinOpt"}}
	b.Progress.AddTotal(int64(len(synth.Mimics()) * 2 * 2))
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+100+uint64(si))
		if err != nil {
			return nil, err
		}
		optPlan, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		row := []string{spec.Name, ml.MetricName(spec.Classes)}
		for _, pen := range []logreg.Penalty{logreg.L1, logreg.L2} {
			for _, plan := range []dataset.Plan{p.data.JoinAllPlan(), optPlan} {
				design, err := p.data.Materialize(plan)
				if err != nil {
					return nil, err
				}
				train, val, test := p.split.Apply(design)
				emb := fs.Embedded{Penalty: pen}
				sp := b.Trace.Child(fmt.Sprintf("%s: embedded(%v, d=%d)", spec.Name, pen, design.NumFeatures()))
				mod, err := emb.FitBest(train, val)
				sp.End()
				if err != nil {
					return nil, err
				}
				metric := ml.MetricFor(spec.Classes)
				row = append(row, f(metric(ml.PredictAll(mod, test), test.Y)))
				b.Progress.Step(1)
			}
		}
		t.Add(row...)
	}
	return &Result{ID: "fig9", Tables: []*Table{t}}, nil
}

// RunTAN regenerates the Appendix E comparison: Naive Bayes versus TAN on
// joined simulation data, showing TAN gains nothing from foreign features
// under the FD FK → X_R (they attach to FK as Kronecker deltas).
func RunTAN(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Appendix E: TAN vs Naive Bayes on joined data (UseAll features)",
		Columns: []string{"n_S", "NB", "TAN", "TAN-NB"}}
	sim := oneXrBase()
	rng := stats.NewRNG(b.Seed + 120)
	nsGrid := []int{200, 500, 1000, 2000}
	b.Progress.AddTotal(int64(len(nsGrid) * b.Worlds))
	for _, nS := range nsGrid {
		var nbErr, tanErr float64
		for w := 0; w < b.Worlds; w++ {
			world, err := synth.NewWorld(sim, rng.Uint64())
			if err != nil {
				return nil, err
			}
			train := world.Sample(nS, rng)
			test := world.Sample(b.NTest, rng)
			feats := world.UseAllFeatures()
			e1, err := ml.Evaluate(nb.New(), train, test, feats)
			if err != nil {
				return nil, err
			}
			e2, err := ml.Evaluate(tanLearner(), train, test, feats)
			if err != nil {
				return nil, err
			}
			nbErr += e1
			tanErr += e2
			b.Progress.Step(1)
		}
		nbErr /= float64(b.Worlds)
		tanErr /= float64(b.Worlds)
		t.Add(d(nS), f(nbErr), f(tanErr), f(tanErr-nbErr))
	}
	// Real-data side of Appendix E: NB vs TAN on the mimics' JoinAll
	// designs, where every foreign feature hangs off its FK in the tree.
	t2 := &Table{Title: "Appendix E: TAN vs Naive Bayes on dataset mimics (JoinAll)",
		Columns: []string{"Dataset", "Metric", "NB", "TAN"}}
	for si, spec := range []string{"Walmart", "Yelp", "MovieLens1M"} {
		ms, err := synth.MimicByName(spec)
		if err != nil {
			return nil, err
		}
		p, err := prepare(ms, b, b.Seed+125+uint64(si))
		if err != nil {
			return nil, err
		}
		design, err := p.data.Materialize(p.data.JoinAllPlan())
		if err != nil {
			return nil, err
		}
		train, _, test := p.split.Apply(design)
		feats := make([]int, design.NumFeatures())
		for i := range feats {
			feats[i] = i
		}
		nbE, err := ml.Evaluate(nbLearner(), train, test, feats)
		if err != nil {
			return nil, err
		}
		tanE, err := ml.Evaluate(tanLearner(), train, test, feats)
		if err != nil {
			return nil, err
		}
		t2.Add(ms.Name, ml.MetricName(ms.Classes), f(nbE), f(tanE))
	}
	return &Result{ID: "tan", Tables: []*Table{t, t2}}, nil
}
