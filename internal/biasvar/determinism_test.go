package biasvar

import (
	"errors"
	"fmt"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/pool"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// TestDeterminismAcrossWorkers is the acceptance gate for the parallel
// Monte Carlo engine: the same seed must produce bitwise-identical Decomp
// maps at every worker count. Cases are quick-budget-sized sweep points of
// the kinds the figure runners dispatch (fig3/fig11-class simulation
// points, plus a skewed configuration).
func TestDeterminismAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		sim  synth.SimConfig
		cfg  Config
	}{
		{
			name: "fig3-point-OneXr",
			sim:  synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1},
			cfg:  Config{NTrain: 300, NTest: 150, L: 8, Worlds: 3, Seed: 1, Learner: nb.New()},
		},
		{
			name: "fig11-point-AllXsXr",
			sim:  synth.SimConfig{Scenario: synth.AllXsXr, DS: 4, DR: 4, NR: 40, P: 0.1},
			cfg:  Config{NTrain: 250, NTest: 100, L: 6, Worlds: 4, Seed: 9, Learner: nb.New()},
		},
		{
			name: "fig13-point-needle-skew",
			sim:  synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1, Skew: synth.NeedleThreadSkew, NeedleP: 0.5},
			cfg:  Config{NTrain: 200, NTest: 100, L: 5, Worlds: 2, Seed: 42, Learner: nb.New()},
		},
		{
			name: "single-world-trial-parallelism-only",
			sim:  synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 25, P: 0.1},
			cfg:  Config{NTrain: 200, NTest: 100, L: 9, Worlds: 1, Seed: 5, Learner: nb.New()},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.cfg
			serial.Workers = 1
			want, err := Run(tc.sim, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8, 0} {
				par := tc.cfg
				par.Workers = workers
				got, err := Run(tc.sim, par)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: class sets differ: %v vs %v", workers, got, want)
				}
				for name, w := range want {
					g, ok := got[name]
					if !ok {
						t.Fatalf("workers=%d: missing class %s", workers, name)
					}
					// Struct equality is exact float64 equality: the parallel
					// path must be bitwise-identical, not merely close.
					if g != w {
						t.Errorf("workers=%d: %s decomposition differs:\nserial:   %+v\nparallel: %+v", workers, name, w, g)
					}
				}
			}
		})
	}
}

// TestRunWorldDeterministicAcrossWorkers pins the inner (training-set)
// fan-out on its own: same world, same RNG seed, any worker count.
func TestRunWorldDeterministicAcrossWorkers(t *testing.T) {
	world, err := synth.NewWorld(synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NTrain: 200, NTest: 100, L: 12, Worlds: 1, Seed: 7, Learner: nb.New(), Workers: 1}
	want, err := RunWorld(world, StandardClasses(world), cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 12, 0} {
		cfg.Workers = workers
		got, err := RunWorld(world, StandardClasses(world), cfg, stats.NewRNG(21))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("workers=%d: %s differs: %+v vs %+v", workers, name, got[name], want[name])
			}
		}
	}
}

// failingLearner errors on every fit after a threshold trial count, to
// exercise error propagation out of the parallel fan-out.
type failingLearner struct{}

func (failingLearner) Name() string { return "failing" }

func (failingLearner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	return nil, errors.New("synthetic fit failure")
}

// TestRunPropagatesWorkerErrors verifies a failing fit surfaces as an error
// (not a panic or a hang) at serial and parallel worker counts.
func TestRunPropagatesWorkerErrors(t *testing.T) {
	sim := synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 20, P: 0.1}
	for _, workers := range []int{1, 4} {
		cfg := Config{NTrain: 100, NTest: 50, L: 4, Worlds: 3, Seed: 3, Learner: failingLearner{}, Workers: workers}
		_, err := Run(sim, cfg)
		if err == nil {
			t.Fatalf("workers=%d: failing learner produced no error", workers)
		}
	}
}

// panickyLearner panics inside a worker, which the pool must capture and
// convert into an error rather than crashing the process.
type panickyLearner struct{}

func (panickyLearner) Name() string { return "panicky" }

func (panickyLearner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	panic("learner exploded")
}

func TestRunRecoversWorkerPanics(t *testing.T) {
	sim := synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 20, P: 0.1}
	for _, workers := range []int{1, 4} {
		cfg := Config{NTrain: 100, NTest: 50, L: 4, Worlds: 2, Seed: 3, Learner: panickyLearner{}, Workers: workers}
		_, err := Run(sim, cfg)
		var pe *pool.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %T (%v), want *pool.PanicError", workers, err, err)
		}
		if pe.Value != "learner exploded" {
			t.Fatalf("workers=%d: wrong panic value: %v", workers, pe.Value)
		}
	}
}

// TestParallelSpanTreeIsDeterministic checks the obs contract: the span
// children (one per world, in world order) and the rolled-up counters must
// not depend on the worker count.
func TestParallelSpanTreeIsDeterministic(t *testing.T) {
	sim := synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 20, P: 0.1}
	shape := func(workers int) []string {
		sp := obs.StartSpan("test")
		cfg := Config{NTrain: 100, NTest: 50, L: 4, Worlds: 5, Seed: 3, Learner: nb.New(), Workers: workers, Span: sp}
		if _, err := Run(sim, cfg); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range sp.Children() {
			names = append(names, fmt.Sprintf("%s[models_trained=%d]", c.Name(), c.Counter("models_trained")))
		}
		names = append(names, fmt.Sprintf("root[worlds=%d models_trained=%d]", sp.Counter("worlds"), sp.Counter("models_trained")))
		return names
	}
	want := shape(1)
	for _, workers := range []int{2, 5, 0} {
		got := shape(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: span shape %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: span child %d = %s, want %s", workers, i, got[i], want[i])
			}
		}
	}
}

// genericNB is Naive Bayes behind a type that is not *nb.Learner, so
// RunWorld takes its generic Fit + ml.PredictAll path with it.
type genericNB struct{ *nb.Learner }

// TestNBScorerPathMatchesGenericPath pins RunWorld's Naive Bayes path (one
// tabulation and one subset scorer per training sample, recycled buffers)
// to the generic path that fits and predicts every class separately:
// identical decompositions in every scenario and skew, at serial and
// parallel worker counts.
func TestNBScorerPathMatchesGenericPath(t *testing.T) {
	for _, sc := range []synth.Scenario{synth.OneXr, synth.AllXsXr, synth.XsFkOnly} {
		for _, sk := range []synth.Skew{synth.NoSkew, synth.ZipfSkew, synth.NeedleThreadSkew} {
			sim := synth.SimConfig{Scenario: sc, DS: 2, DR: 3, NR: 30, P: 0.1, Skew: sk, ZipfS: 2, NeedleP: 0.5}
			world, err := synth.NewWorld(sim, 17)
			if err != nil {
				t.Fatal(err)
			}
			classes := StandardClasses(world)
			for _, workers := range []int{1, 2, 8} {
				cfg := Config{NTrain: 150, NTest: 60, L: 6, Worlds: 1, Workers: workers}
				cfg.Learner = nb.New()
				fast, err := RunWorld(world, classes, cfg, stats.NewRNG(23))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Learner = genericNB{nb.New()}
				slow, err := RunWorld(world, classes, cfg, stats.NewRNG(23))
				if err != nil {
					t.Fatal(err)
				}
				for _, mc := range classes {
					if fast[mc.Name] != slow[mc.Name] {
						t.Errorf("%v/%v workers=%d %s: scorer path %+v, generic path %+v", sc, sk, workers, mc.Name, fast[mc.Name], slow[mc.Name])
					}
				}
			}
		}
	}
}
