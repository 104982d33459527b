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
// A trial is one training sample (see RunWorld for its cost). It predicts
// only the world's distinct test rows: RunWorld compacts the test set once,
// takes each distinct row's P(Y|x) once, and decompose adds each row's terms
// in test-row order. A Naive Bayes trial predicts every model class from one
// nb.SubsetScorer and builds no Model, so during a Naive Bayes run nb.fits,
// nb.models_assembled, ml.predict_batches and ml.rows_predicted do not
// move, nb.stats_builds counts one tabulation per trial (the tally of its
// sample through nb.Recount), and biasvar.models_trained
// counts one per (trial, model class). With any other learner,
// ml.rows_predicted counts the distinct test rows of each (trial, model
// class), not the test rows.
package biasvar

import (
	"fmt"
	"math"
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
	// Learner trains the models; Run and RunWorld refuse a nil one. Its
	// Fit is called from multiple goroutines when Workers > 1, so it must
	// be safe for concurrent use (the Naive Bayes and TAN learners are
	// stateless).
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
	if err := c.validateWorld(); err != nil {
		return err
	}
	if c.Worlds < 1 {
		return fmt.Errorf("biasvar: need at least 1 world, got %d", c.Worlds)
	}
	return nil
}

// validateWorld checks the fields RunWorld uses.
func (c Config) validateWorld() error {
	if c.NTrain <= 0 || c.NTest <= 0 {
		return fmt.Errorf("biasvar: need positive train/test sizes, got %d/%d", c.NTrain, c.NTest)
	}
	if c.L < 2 {
		return fmt.Errorf("biasvar: need at least 2 training sets per world, got %d", c.L)
	}
	if c.Learner == nil {
		return fmt.Errorf("biasvar: nil learner")
	}
	return nil
}

// checkClasses refuses a model class without a name or with another
// class's name: RunWorld reports one decomposition per name.
func checkClasses(classes []ModelClass) error {
	seen := make(map[string]bool, len(classes))
	for i, mc := range classes {
		if mc.Name == "" {
			return fmt.Errorf("biasvar: model class %d has no name", i)
		}
		if seen[mc.Name] {
			return fmt.Errorf("biasvar: model class %q named twice", mc.Name)
		}
		seen[mc.Name] = true
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
// set, and aggregates the pointwise decomposition over the test set. It
// checks the fields of cfg it uses (all but Worlds) as Validate does, and
// refuses a class without a name or with another class's name.
//
// The L fits are independent and run on cfg.Workers goroutines; each trial
// draws its training set from an RNG split off rng in trial order before
// dispatch (after the test set is sampled), so the decomposition is
// bitwise-identical at every worker count.
//
// The test set is compacted once into its distinct rows (see compact), and
// every trial predicts only those: a prediction is a function of its row,
// so each test row's prediction is its distinct row's. With the Naive Bayes
// learner a trial builds no training design: World.TallyInto counts its
// sample into the trial's count tables as it is drawn, and one
// nb.SubsetScorer over the distinct rows, Reset against those tables,
// predicts every model class. The tables equal nb.NewStats of the sampled
// design, and the scorer's predictions equal Fit followed by ml.PredictAll,
// bit for bit. Any other learner is fit on a sampled design and applied once
// per class. Trials recycle their tables, scorer or design through a pool
// local to the call, so a world allocates one set per concurrent trial, not
// one per trial, and all predictions land in one buffer allocated per
// world.
func RunWorld(world *synth.World, classes []ModelClass, cfg Config, rng *stats.RNG) (map[string]Decomp, error) {
	if err := cfg.validateWorld(); err != nil {
		return nil, err
	}
	if err := checkClasses(classes); err != nil {
		return nil, err
	}
	test := newTestSet(world, world.Sample(cfg.NTest, rng))
	trialRNG := make([]*stats.RNG, cfg.L)
	for l := range trialRNG {
		trialRNG[l] = rng.Split()
	}
	// preds[c] holds class c's predictions of the distinct test rows, model
	// l's at [l*d, (l+1)*d), one byte each: the target is binary.
	// Concurrent trials write disjoint ranges.
	d := test.rows.NumRows()
	buf := make([]uint8, len(classes)*cfg.L*d)
	preds := make([][]uint8, len(classes))
	for c := range preds {
		preds[c] = buf[c*cfg.L*d : (c+1)*cfg.L*d]
	}
	nbl, _ := cfg.Learner.(*nb.Learner)
	var trials sync.Pool
	err := pool.Run(cfg.L, cfg.Workers, func(l int) error {
		tr, _ := trials.Get().(*trial)
		if tr == nil {
			tr = &trial{}
		}
		if nbl != nil {
			tr.stats = world.TallyInto(tr.stats, cfg.NTrain, trialRNG[l])
			if tr.scorer == nil {
				tr.scorer = nb.NewSubsetScorer(tr.stats, nbl.Alpha, test.rows)
			} else {
				tr.scorer.Reset(tr.stats)
			}
		} else {
			tr.train = world.SampleInto(tr.train, cfg.NTrain, trialRNG[l])
		}
		for c, mc := range classes {
			if err := tr.predict(cfg.Learner, mc.Features, test.rows, preds[c][l*d:(l+1)*d]); err != nil {
				return fmt.Errorf("biasvar: class %s: %w", mc.Name, err)
			}
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
	for c, mc := range classes {
		out[mc.Name] = test.decompose(preds[c])
	}
	return out, nil
}

// trial is the reusable state of one training sample: for Naive Bayes its
// count tables and the subset scorer over the world's distinct test rows,
// for any other learner its design.
type trial struct {
	train  *dataset.Design
	stats  *nb.Stats
	scorer *nb.SubsetScorer
}

// predict writes into dst the predictions for rows of the model over
// features trained on tr.train: from the scorer when there is one, else by
// fitting the learner and applying the model row by row.
func (tr *trial) predict(l ml.Learner, features []int, rows *dataset.Design, dst []uint8) error {
	var p []int32
	if tr.scorer != nil {
		var err error
		if p, err = tr.scorer.Predict(features); err != nil {
			return err
		}
	} else {
		mod, err := l.Fit(tr.train, features)
		if err != nil {
			return err
		}
		p = ml.PredictAll(mod, rows)
	}
	for i, c := range p {
		dst[i] = uint8(c)
	}
	return nil
}

// testSet is a world's test design reduced to its distinct rows, with what
// decompose needs to expand them back to the test set.
type testSet struct {
	// rows holds the distinct rows in the order of their first occurrence,
	// in the sampled test design's own storage; each keeps its first
	// occurrence's label, which nothing reads.
	rows *dataset.Design
	// of[i] is test row i's index in rows.
	of []int32
	// p1[j] is the true P(Y=1 | x) of distinct row j.
	p1 []float64
	// terms[j] holds distinct row j's terms while decompose sums them; the
	// model classes of a world reuse it.
	terms []rowTerms
}

// newTestSet compacts test in place and takes each distinct row's true
// conditional from the world once.
func newTestSet(world *synth.World, test *dataset.Design) *testSet {
	of := compact(test)
	p1 := make([]float64, test.NumRows())
	for j := range p1 {
		p1[j] = world.TrueConditional(test, j)
	}
	return &testSet{rows: test, of: of, p1: p1}
}

// compact reduces m in place to its distinct rows, in the order of their
// first occurrence, and returns each original row's index among them. Rows
// are compared by an exact integer key: the mixed-radix number whose digits
// are the row's column values and whose radices are the column
// cardinalities. Before a column would carry the radix past a uint64, the
// keys so far are renumbered densely, so the key stays exact at any width
// without a string per row: a column's values are int32s in [0, Card), so
// its radix is at most 2^31, and a renumbered key is below the row count.
func compact(m *dataset.Design) []int32 {
	n := m.NumRows()
	key := make([]uint64, n)
	radix := uint64(1)
	for _, f := range m.Features {
		card := uint64(min(max(f.Card, 1), 1<<31))
		if radix > math.MaxUint64/card {
			radix = uint64(renumber(key))
		}
		for i, v := range f.Data[:n] {
			key[i] = key[i]*card + uint64(v)
		}
		radix *= card
	}
	d := renumber(key)
	of := make([]int32, n)
	for i, id := range key {
		of[i] = int32(id)
	}
	m.Y = moveFirsts(m.Y, of, d)
	for c := range m.Features {
		m.Features[c].Data = moveFirsts(m.Features[c].Data, of, d)
	}
	return of
}

// moveFirsts moves each distinct row's first occurrence in col down to the
// row's index, given each row's index in of, and returns col's first d
// elements. Distinct row j first occurs at a row i >= j, and every row
// before i has been read when it moves, so a move overwrites only rows that
// are done with.
func moveFirsts(col, of []int32, d int) []int32 {
	next := int32(0)
	for i, id := range of {
		if id == next {
			col[next] = col[i]
			next++
		}
	}
	return col[:d]
}

// renumber replaces every key by the rank of its first occurrence among the
// distinct keys and returns their number. The map starts with room for one
// key per row up to 1,024, so a large test set of few distinct rows does
// not allocate for all of its rows.
func renumber(key []uint64) int {
	ids := make(map[uint64]uint64, min(len(key), 1024))
	for i, k := range key {
		id, ok := ids[k]
		if !ok {
			id = uint64(len(ids))
			ids[k] = id
		}
		key[i] = id
	}
	return len(ids)
}

// rowTerms is one test row's pointwise decomposition.
type rowTerms struct {
	err, bias, variance, netVariance, noise float64
}

// decompose computes the pointwise Domingos decomposition of every distinct
// row once and averages it over the test set. preds holds the L models'
// predictions of the distinct rows, model l's at [l*d, (l+1)*d). Test row i
// contributes the terms of its distinct row, and the contributions are
// added in test-row order, so every sum equals the one a row-by-row pass
// makes, bit for bit.
func (ts *testSet) decompose(preds []uint8) Decomp {
	d := len(ts.p1)
	l := len(preds) / d
	if cap(ts.terms) < d {
		ts.terms = make([]rowTerms, d)
	}
	terms := ts.terms[:d]
	for j, p1 := range ts.p1 {
		// Optimal prediction and noise.
		var t int32
		noise := p1
		if p1 >= 0.5 {
			t, noise = 1, 1-p1
		}
		// Main prediction: mode of the L predictions (binary target).
		ones := 0
		for k := j; k < len(preds); k += d {
			ones += int(preds[k])
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
		// Expected test error of each model, exact in P(Y|x), summed in
		// model order.
		errSum := 0.0
		for k := j; k < len(preds); k += d {
			if preds[k] == 1 {
				errSum += 1 - p1
			} else {
				errSum += p1
			}
		}
		terms[j] = rowTerms{
			err:         errSum / float64(l),
			bias:        bias,
			variance:    variance,
			netVariance: (1 - 2*bias) * variance,
			noise:       noise,
		}
	}
	var out Decomp
	for _, j := range ts.of {
		t := &terms[j]
		out.TestError += t.err
		out.Bias += t.bias
		out.Variance += t.variance
		out.NetVariance += t.netVariance
		out.Noise += t.noise
	}
	fn := float64(len(ts.of))
	out.TestError /= fn
	out.Bias /= fn
	out.Variance /= fn
	out.NetVariance /= fn
	out.Noise /= fn
	return out
}
