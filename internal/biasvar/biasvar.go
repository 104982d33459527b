// Package biasvar implements the bias–variance decomposition of Domingos
// (ICML 2000) that the paper uses to measure the effects of avoiding joins
// (§4.1, Definitions 4.1–4.2, Eq. 1), together with the Monte Carlo harness
// that drives it over simulation worlds.
//
// For each test point x, the harness trains one model per training set in a
// collection S (|S| = L), collects the L predictions, and computes:
//
//   - the optimal prediction t(x) = argmax_y P(y|x) (the true conditional is
//     known exactly in simulation);
//   - the noise N(x) = P(Y ≠ t(x) | x);
//   - the main prediction y_m = the mode of the L predictions;
//   - the bias B(x) = 1[y_m ≠ t(x)];
//   - the variance V(x) = (1/L) Σ_l 1[pred_l ≠ y_m];
//   - the net variance (1 − 2B(x))·V(x), which captures variance helping on
//     biased points and hurting on unbiased ones;
//   - the expected test error E(x) = (1/L) Σ_l (1 − P(pred_l | x)), exact in
//     the true distribution rather than estimated from sampled test labels.
//
// For binary targets these satisfy the exact identity
// E = N + (1 − 2N)·(B + (1 − 2B)·V), which tests verify numerically; the
// reported aggregate quantities (average test error, average bias, average
// net variance) are the ones plotted in the paper's Figures 3, 10, 11, 13.
//
// A trial is one training sample (see RunWorld for its cost). A Naive Bayes
// trial predicts every model class from one nb.SubsetScorer and builds no
// Model, so during a Naive Bayes run nb.fits, nb.models_assembled,
// ml.predict_batches and ml.rows_predicted do not move, nb.stats_builds
// counts one per trial, and biasvar.models_trained counts one per (trial,
// model class).
package biasvar

import (
	"fmt"
	"slices"
	"sync"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/pool"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// Monte Carlo instrumentation: worlds realized and models trained across
// all bias–variance runs in the process.
var (
	worldsRun     = obs.C("biasvar.worlds")
	modelsTrained = obs.C("biasvar.models_trained")
)

// Decomp aggregates the decomposition over a test set.
type Decomp struct {
	// TestError is the average expected zero-one test error.
	TestError float64
	// Bias is the average bias.
	Bias float64
	// NetVariance is the average net variance (1−2B)·V.
	NetVariance float64
	// Variance is the average raw variance V.
	Variance float64
	// Noise is the average noise.
	Noise float64
}

// ModelClass names a feature subset under comparison (the paper's UseAll,
// NoJoin, NoFK).
type ModelClass struct {
	// Name labels the class in reports.
	Name string
	// Features are design-matrix column indices.
	Features []int
}

// StandardClasses returns the paper's three model classes for a world.
func StandardClasses(w *synth.World) []ModelClass {
	return []ModelClass{
		{Name: "UseAll", Features: w.UseAllFeatures()},
		{Name: "NoJoin", Features: w.NoJoinFeatures()},
		{Name: "NoFK", Features: w.NoFKFeatures()},
	}
}

// Config drives one Monte Carlo run.
type Config struct {
	// NTrain is the training-set size n_S.
	NTrain int
	// NTest is the test-set size; the paper uses n_S/4.
	NTest int
	// L is the number of training sets per world (the paper's |S| = 100).
	L int
	// Worlds is the number of independent world realizations (the paper's
	// 100 seeds); results are averaged across worlds.
	Worlds int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the worker goroutines of the Monte Carlo fan-out
	// (worlds in Run, training-set fits in RunWorld); <= 0 means
	// GOMAXPROCS. Results are bitwise-identical at every worker count:
	// each (world, trial) task receives an RNG split off the seed stream
	// in index order before dispatch, so what a task computes never
	// depends on scheduling, and the floating-point reductions happen in
	// index order after the pool drains.
	Workers int
	// Learner trains the models; nil means Naive Bayes is supplied by the
	// caller (Run requires it non-nil). The learner's Fit is called from
	// multiple goroutines when Workers > 1, so it must be safe for
	// concurrent use (the Naive Bayes and TAN learners are stateless).
	Learner ml.Learner
	// Progress, when non-nil, receives one unit of total per (world,
	// training set) pair and one step as each completes, driving the CLIs'
	// -progress ETA lines. Nil disables reporting at zero cost.
	Progress *obs.Progress
	// Span, when non-nil, accumulates per-run counters (worlds, models
	// trained) under the caller's trace. Nil disables tracing.
	Span *obs.Span
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NTrain <= 0 || c.NTest <= 0 {
		return fmt.Errorf("biasvar: need positive train/test sizes, got %d/%d", c.NTrain, c.NTest)
	}
	if c.L < 2 {
		return fmt.Errorf("biasvar: need at least 2 training sets per world, got %d", c.L)
	}
	if c.Worlds < 1 {
		return fmt.Errorf("biasvar: need at least 1 world, got %d", c.Worlds)
	}
	if c.Learner == nil {
		return fmt.Errorf("biasvar: nil learner")
	}
	return nil
}

// Run executes the Monte Carlo study for one simulation configuration and
// returns one aggregate decomposition per model class, averaged over worlds.
//
// Worlds are dispatched to a bounded worker pool (cfg.Workers); the output
// is bitwise-identical at every worker count because every world's seed and
// RNG stream are split off the root stream in world order *before* dispatch
// and the per-world decompositions are reduced in world order afterwards.
// When cfg.Span is set, each world records its own child span; the children
// are adopted in world order after the pool drains, so the trace tree is
// deterministic too (only the spans' wall-clock timings vary run to run).
func Run(simCfg synth.SimConfig, cfg Config) (map[string]Decomp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := simCfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	cfg.Progress.AddTotal(int64(cfg.Worlds) * int64(cfg.L))
	// Pre-split every world's randomness in world order: one seed word for
	// the world realization, one child stream for its sampling. This is the
	// whole determinism argument — after this loop, no task consumes from a
	// shared stream.
	type worldRand struct {
		seed uint64
		rng  *stats.RNG
	}
	wrand := make([]worldRand, cfg.Worlds)
	for wi := range wrand {
		wrand[wi] = worldRand{seed: rng.Uint64(), rng: rng.Split()}
	}
	workers := pool.Workers(cfg.Workers)
	worldWorkers := workers
	if worldWorkers > cfg.Worlds {
		worldWorkers = cfg.Worlds
	}
	// Leftover parallelism goes to the L training-set fits inside each
	// world, so small-world sweeps still saturate the pool budget.
	innerWorkers := workers / worldWorkers
	perWorld := make([]map[string]Decomp, cfg.Worlds)
	spans := make([]*obs.Span, cfg.Worlds)
	err := pool.Run(cfg.Worlds, worldWorkers, func(wi int) error {
		world, err := synth.NewWorld(simCfg, wrand[wi].seed)
		if err != nil {
			return fmt.Errorf("biasvar: world %d: %w", wi, err)
		}
		worldsRun.Inc()
		wcfg := cfg
		wcfg.Workers = innerWorkers
		if cfg.Span != nil {
			spans[wi] = obs.StartSpan(fmt.Sprintf("world[%d]", wi))
			wcfg.Span = spans[wi]
		}
		out, err := RunWorld(world, StandardClasses(world), wcfg, wrand[wi].rng)
		spans[wi].End()
		if err != nil {
			return fmt.Errorf("biasvar: world %d: %w", wi, err)
		}
		perWorld[wi] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg.Span.AdoptAll(spans)
	cfg.Span.Add("worlds", int64(cfg.Worlds))
	// Reduce in world order so the float sums are scheduling-independent.
	acc := make(map[string]*Decomp, len(perWorld[0]))
	for name := range perWorld[0] {
		acc[name] = &Decomp{}
	}
	for _, d := range perWorld {
		for name, w := range d {
			a := acc[name]
			a.TestError += w.TestError
			a.Bias += w.Bias
			a.NetVariance += w.NetVariance
			a.Variance += w.Variance
			a.Noise += w.Noise
		}
	}
	cfg.Span.Add("models_trained", int64(cfg.Worlds)*int64(cfg.L)*int64(len(acc)))
	out := make(map[string]Decomp, len(acc))
	for name, a := range acc {
		out[name] = Decomp{
			TestError:   a.TestError / float64(cfg.Worlds),
			Bias:        a.Bias / float64(cfg.Worlds),
			NetVariance: a.NetVariance / float64(cfg.Worlds),
			Variance:    a.Variance / float64(cfg.Worlds),
			Noise:       a.Noise / float64(cfg.Worlds),
		}
	}
	return out, nil
}

// RunWorld performs the decomposition within a single world: it samples one
// test set and L training sets, trains each model class on every training
// set, and aggregates the pointwise decomposition over the test set.
//
// The L fits are independent and run on cfg.Workers goroutines; each trial
// draws its training set from an RNG split off rng in trial order before
// dispatch (after the test set is sampled), so the decomposition is
// bitwise-identical at every worker count.
//
// With the Naive Bayes learner a trial tabulates its training sample once
// (nb.NewStats) and predicts every model class from one nb.SubsetScorer over
// the test set, whose predictions equal Fit followed by ml.PredictAll bit
// for bit; any other learner is fit and applied once per class. Trials
// recycle their training design and scorer through a pool local to the
// call, so a world allocates one set per concurrent trial, not one per
// trial.
func RunWorld(world *synth.World, classes []ModelClass, cfg Config, rng *stats.RNG) (map[string]Decomp, error) {
	test := world.Sample(cfg.NTest, rng)
	trialRNG := make([]*stats.RNG, cfg.L)
	for l := range trialRNG {
		trialRNG[l] = rng.Split()
	}
	// preds[class][l] is the prediction vector of model l on the test set.
	// Concurrent trials write disjoint elements of these shared slices.
	preds := make(map[string][][]int32, len(classes))
	for _, mc := range classes {
		preds[mc.Name] = make([][]int32, cfg.L)
	}
	nbl, _ := cfg.Learner.(*nb.Learner)
	var trials sync.Pool
	err := pool.Run(cfg.L, cfg.Workers, func(l int) error {
		tr, _ := trials.Get().(*trial)
		if tr == nil {
			tr = &trial{}
		}
		tr.train = world.SampleInto(tr.train, cfg.NTrain, trialRNG[l])
		if nbl != nil {
			s := nb.NewStats(tr.train)
			if tr.scorer == nil {
				tr.scorer = nb.NewSubsetScorer(s, nbl.Alpha, test)
			} else {
				tr.scorer.Reset(s)
			}
		}
		for _, mc := range classes {
			p, err := tr.predict(cfg.Learner, mc.Features, test)
			if err != nil {
				return fmt.Errorf("biasvar: class %s: %w", mc.Name, err)
			}
			preds[mc.Name][l] = p
		}
		trials.Put(tr)
		modelsTrained.Add(int64(len(classes)))
		cfg.Span.Add("models_trained", int64(len(classes)))
		cfg.Progress.Step(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]Decomp, len(classes))
	for _, mc := range classes {
		out[mc.Name] = decompose(world, test, preds[mc.Name])
	}
	return out, nil
}

// trial is the reusable state of one training sample: its design and, for
// Naive Bayes, the subset scorer over the world's test set.
type trial struct {
	train  *dataset.Design
	scorer *nb.SubsetScorer
}

// predict returns the test-set predictions of the model over features
// trained on tr.train: from the scorer when there is one, else by fitting
// the learner and applying the model row by row.
func (tr *trial) predict(l ml.Learner, features []int, test *dataset.Design) ([]int32, error) {
	if tr.scorer != nil {
		p, err := tr.scorer.Predict(features)
		if err != nil {
			return nil, err
		}
		return slices.Clone(p), nil
	}
	mod, err := l.Fit(tr.train, features)
	if err != nil {
		return nil, err
	}
	return ml.PredictAll(mod, test), nil
}

// decompose computes the pointwise Domingos decomposition and averages it
// over the test set.
func decompose(world *synth.World, test *dataset.Design, preds [][]int32) Decomp {
	n := test.NumRows()
	l := len(preds)
	var d Decomp
	for i := 0; i < n; i++ {
		p1 := world.TrueConditional(test, i)
		// Optimal prediction and noise.
		var t int32
		noise := p1
		if p1 >= 0.5 {
			t, noise = 1, 1-p1
		}
		// Main prediction: mode of the L predictions (binary target).
		ones := 0
		for _, pl := range preds {
			ones += int(pl[i])
		}
		var ym int32
		if 2*ones > l {
			ym = 1
		}
		bias := 0.0
		if ym != t {
			bias = 1
		}
		// Variance: disagreement with the main prediction.
		disagree := ones
		if ym == 1 {
			disagree = l - ones
		}
		variance := float64(disagree) / float64(l)
		// Expected test error of each model, exact in P(Y|x).
		errSum := 0.0
		for _, pl := range preds {
			if pl[i] == 1 {
				errSum += 1 - p1
			} else {
				errSum += p1
			}
		}
		d.TestError += errSum / float64(l)
		d.Bias += bias
		d.Variance += variance
		d.NetVariance += (1 - 2*bias) * variance
		d.Noise += noise
	}
	fn := float64(n)
	d.TestError /= fn
	d.Bias /= fn
	d.Variance /= fn
	d.NetVariance /= fn
	d.Noise /= fn
	return d
}
