package biasvar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/ml/tan"
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

// pinnedCase is one Run whose decompositions TestRunDecompsPinned pins.
type pinnedCase struct {
	name string
	sim  synth.SimConfig
	cfg  Config
}

// pinnedCases is every scenario under every FK skew at d_S ∈ {0, 2} and
// n_R ∈ {2, 40, 5000}, then four cases the grid does not reach: L > 64, a
// test set of at most six distinct rows among 1,000, a test set whose rows
// are all distinct, and a learner other than Naive Bayes.
func pinnedCases() []pinnedCase {
	var out []pinnedCase
	for _, sc := range []synth.Scenario{synth.OneXr, synth.AllXsXr, synth.XsFkOnly} {
		for _, sk := range []synth.Skew{synth.NoSkew, synth.ZipfSkew, synth.NeedleThreadSkew} {
			for _, dS := range []int{0, 2} {
				for _, nR := range []int{2, 40, 5000} {
					out = append(out, pinnedCase{
						name: fmt.Sprintf("%v/%v/dS=%d/nR=%d", sc, sk, dS, nR),
						sim:  synth.SimConfig{Scenario: sc, DS: dS, DR: 3, NR: nR, P: 0.25, Skew: sk, ZipfS: 2, NeedleP: 0.5},
						cfg:  Config{NTrain: 30, NTest: 150, L: 5, Worlds: 2, Seed: 31, Learner: nb.New()},
					})
				}
			}
		}
	}
	return append(out,
		pinnedCase{"L=70", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1},
			Config{NTrain: 150, NTest: 200, L: 70, Worlds: 2, Seed: 3, Learner: nb.New()}},
		pinnedCase{"repeated-rows", synth.SimConfig{Scenario: synth.AllXsXr, DS: 1, DR: 2, NR: 3, P: 0.2},
			Config{NTrain: 100, NTest: 1000, L: 6, Worlds: 2, Seed: 5, Learner: nb.New()}},
		pinnedCase{"distinct-rows", synth.SimConfig{Scenario: synth.XsFkOnly, DS: 6, DR: 2, NR: 5000, P: 0.1},
			Config{NTrain: 300, NTest: 40, L: 6, Worlds: 2, Seed: 8, Learner: nb.New()}},
		pinnedCase{"generic-learner", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 3, NR: 12, P: 0.1, Skew: synth.ZipfSkew, ZipfS: 1},
			Config{NTrain: 150, NTest: 120, L: 6, Worlds: 2, Seed: 13, Learner: tan.New()}},
	)
}

// decompDigest folds the float bits of every class's five aggregates, class
// names in sorted order, into one FNV-1a digest.
func decompDigest(out map[string]Decomp) uint64 {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf []byte
	for _, name := range names {
		d := out[name]
		buf = append(buf[:0], name...)
		for _, x := range []float64{d.TestError, d.Bias, d.NetVariance, d.Variance, d.Noise} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// runTestSets returns the test design of every world of Run(sim, cfg): Run
// hands world wi the wi-th seed word and split stream of cfg.Seed's stream,
// and RunWorld draws its test set from that stream first.
func runTestSets(t *testing.T, sim synth.SimConfig, cfg Config) []*dataset.Design {
	t.Helper()
	rng := stats.NewRNG(cfg.Seed)
	var out []*dataset.Design
	for wi := 0; wi < cfg.Worlds; wi++ {
		seed, wrng := rng.Uint64(), rng.Split()
		world, err := synth.NewWorld(sim, seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, world.Sample(cfg.NTest, wrng))
	}
	return out
}

// distinctRows counts the distinct rows of m's feature columns, keyed by
// their values as bytes.
func distinctRows(m *dataset.Design) int {
	seen := make(map[string]bool)
	var key []byte
	for i := 0; i < m.NumRows(); i++ {
		key = key[:0]
		for _, f := range m.Features {
			key = binary.LittleEndian.AppendUint32(key, uint32(f.Data[i]))
		}
		seen[string(key)] = true
	}
	return len(seen)
}

// TestRunDecompsPinned pins Run's decompositions, float bit for float bit,
// to digests recorded when every trial scored every test row and decompose
// computed every row's terms. Scoring each distinct test row once must
// change none of them: a prediction and P(Y|x) are functions of the row,
// and the terms are still summed in row order.
func TestRunDecompsPinned(t *testing.T) {
	cases := pinnedCases()
	want := []uint64{
		0xcac39a588317864d, // OneXr/none/dS=0/nR=2
		0x29b76e36b75c6b15, // OneXr/none/dS=0/nR=40
		0x9dc1a87ee3338821, // OneXr/none/dS=0/nR=5000
		0xbcfe5fe3126e6bb2, // OneXr/none/dS=2/nR=2
		0xe8b7dace135b9f57, // OneXr/none/dS=2/nR=40
		0xddb9e2af7e9ad025, // OneXr/none/dS=2/nR=5000
		0xf3abd2fbad855c50, // OneXr/zipf/dS=0/nR=2
		0x33de9e3c9f80233c, // OneXr/zipf/dS=0/nR=40
		0xea32817544344b08, // OneXr/zipf/dS=0/nR=5000
		0xb8465581f68ab5ce, // OneXr/zipf/dS=2/nR=2
		0xc5e47ce16d6644ed, // OneXr/zipf/dS=2/nR=40
		0x7c2b3f69c046bc91, // OneXr/zipf/dS=2/nR=5000
		0xcac39a588317864d, // OneXr/needle-and-thread/dS=0/nR=2
		0xa11e2d4d7270a3b9, // OneXr/needle-and-thread/dS=0/nR=40
		0x1c72b59d3004eea2, // OneXr/needle-and-thread/dS=0/nR=5000
		0xbcfe5fe3126e6bb2, // OneXr/needle-and-thread/dS=2/nR=2
		0xfe0b7eadc8c8a127, // OneXr/needle-and-thread/dS=2/nR=40
		0x03aedccef1ef1d8b, // OneXr/needle-and-thread/dS=2/nR=5000
		0x7a15cb1c62c28630, // AllXsXr/none/dS=0/nR=2
		0x53c5fe1667300117, // AllXsXr/none/dS=0/nR=40
		0x696d6bc3bda4c984, // AllXsXr/none/dS=0/nR=5000
		0x566d11ae8404b059, // AllXsXr/none/dS=2/nR=2
		0x846c5ce66020f297, // AllXsXr/none/dS=2/nR=40
		0xa39f5da478f40a78, // AllXsXr/none/dS=2/nR=5000
		0x7a15cb1c62c28630, // AllXsXr/zipf/dS=0/nR=2
		0x247e2b23e3d98176, // AllXsXr/zipf/dS=0/nR=40
		0x10ed52020fa2b245, // AllXsXr/zipf/dS=0/nR=5000
		0x566d11ae8404b059, // AllXsXr/zipf/dS=2/nR=2
		0xbdf242112697be0e, // AllXsXr/zipf/dS=2/nR=40
		0xd0b472fd3d94a7f1, // AllXsXr/zipf/dS=2/nR=5000
		0x7a15cb1c62c28630, // AllXsXr/needle-and-thread/dS=0/nR=2
		0x68f5e00fca293a12, // AllXsXr/needle-and-thread/dS=0/nR=40
		0xf9944b653223fbce, // AllXsXr/needle-and-thread/dS=0/nR=5000
		0x566d11ae8404b059, // AllXsXr/needle-and-thread/dS=2/nR=2
		0x73074a8f50bf8129, // AllXsXr/needle-and-thread/dS=2/nR=40
		0x76f2710646b0b5bb, // AllXsXr/needle-and-thread/dS=2/nR=5000
		0x10d5a1b5eada077c, // XsFkOnly/none/dS=0/nR=2
		0x89b1e5bfb2cca5c7, // XsFkOnly/none/dS=0/nR=40
		0xd229267dbf73e467, // XsFkOnly/none/dS=0/nR=5000
		0x19122bb4f9d0153f, // XsFkOnly/none/dS=2/nR=2
		0xb0946f4209bc724e, // XsFkOnly/none/dS=2/nR=40
		0x95c5a277a7ffabc2, // XsFkOnly/none/dS=2/nR=5000
		0x68f3fd476d5d3ff2, // XsFkOnly/zipf/dS=0/nR=2
		0x3612f704a58ea31f, // XsFkOnly/zipf/dS=0/nR=40
		0x5ecb022fe89ec0d9, // XsFkOnly/zipf/dS=0/nR=5000
		0xf73212d3b7875a59, // XsFkOnly/zipf/dS=2/nR=2
		0xf81e0ffb1dd8cb4f, // XsFkOnly/zipf/dS=2/nR=40
		0xeb977bb5e5cfbe15, // XsFkOnly/zipf/dS=2/nR=5000
		0x10d5a1b5eada077c, // XsFkOnly/needle-and-thread/dS=0/nR=2
		0x8f275d771b53dc62, // XsFkOnly/needle-and-thread/dS=0/nR=40
		0x79a84812adf185a8, // XsFkOnly/needle-and-thread/dS=0/nR=5000
		0x19122bb4f9d0153f, // XsFkOnly/needle-and-thread/dS=2/nR=2
		0x3f96ec1de5688069, // XsFkOnly/needle-and-thread/dS=2/nR=40
		0x7eacdcd047ed231e, // XsFkOnly/needle-and-thread/dS=2/nR=5000
		0xa6422efca2e8c1b3, // L=70
		0x5b6109ec1401579c, // repeated-rows
		0xa2f47db18c28b4a7, // distinct-rows
		0x800a2cb0e90a2e57, // generic-learner
	}
	if len(want) != len(cases) {
		t.Fatalf("%d digests for %d cases", len(want), len(cases))
	}
	for i, tc := range cases {
		out, err := Run(tc.sim, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := decompDigest(out); got != want[i] {
			t.Errorf("%s: decomposition digest %#016x, want %#016x", tc.name, got, want[i])
		}
	}
	for _, tc := range cases {
		for _, m := range runTestSets(t, tc.sim, tc.cfg) {
			n := distinctRows(m)
			switch {
			case tc.name == "repeated-rows" && n > 6:
				t.Errorf("%s: %d distinct test rows, want at most 6", tc.name, n)
			case tc.name == "distinct-rows" && n != m.NumRows():
				t.Errorf("%s: %d distinct test rows of %d", tc.name, n, m.NumRows())
			}
		}
	}
}
