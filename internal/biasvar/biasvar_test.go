package biasvar

import (
	"errors"
	"math"
	"testing"

	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/pool"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

func simCfg() synth.SimConfig {
	return synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}
}

func runCfg(nTrain int) Config {
	return Config{NTrain: nTrain, NTest: nTrain / 4, L: 12, Worlds: 4, Seed: 7, Learner: nb.New()}
}

func TestConfigValidate(t *testing.T) {
	good := runCfg(400)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{NTrain: 0, NTest: 10, L: 5, Worlds: 1, Learner: nb.New()},
		{NTrain: 10, NTest: 0, L: 5, Worlds: 1, Learner: nb.New()},
		{NTrain: 10, NTest: 10, L: 1, Worlds: 1, Learner: nb.New()},
		{NTrain: 10, NTest: 10, L: 5, Worlds: 0, Learner: nb.New()},
		{NTrain: 10, NTest: 10, L: 5, Worlds: 1, Learner: nil},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestRunProducesAllClasses(t *testing.T) {
	out, err := Run(simCfg(), runCfg(400))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"UseAll", "NoJoin", "NoFK"} {
		d, ok := out[name]
		if !ok {
			t.Fatalf("missing class %s", name)
		}
		if d.TestError < 0 || d.TestError > 1 || d.Bias < 0 || d.Bias > 1 ||
			d.Variance < 0 || d.Variance > 1 || d.Noise < 0 || d.Noise > 0.5 {
			t.Fatalf("%s decomposition out of range: %+v", name, d)
		}
	}
}

// TestNBRunTabulatesOncePerTrial pins the package doc's counter contract
// for Naive Bayes: a Run tabulates each trial's sample once, through the
// tally, and fits no model, at serial and parallel worker counts.
func TestNBRunTabulatesOncePerTrial(t *testing.T) {
	builds, fits, assembled := obs.C("nb.stats_builds"), obs.C("nb.fits"), obs.C("nb.models_assembled")
	for _, workers := range []int{1, 3} {
		cfg := runCfg(200)
		cfg.Workers = workers
		b0, f0, a0 := builds.Value(), fits.Value(), assembled.Value()
		if _, err := Run(simCfg(), cfg); err != nil {
			t.Fatal(err)
		}
		if got, want := builds.Value()-b0, int64(cfg.Worlds*cfg.L); got != want {
			t.Errorf("workers=%d: nb.stats_builds moved by %d, want Worlds × L = %d", workers, got, want)
		}
		if got := fits.Value() - f0; got != 0 {
			t.Errorf("workers=%d: nb.fits moved by %d, want 0", workers, got)
		}
		if got := assembled.Value() - a0; got != 0 {
			t.Errorf("workers=%d: nb.models_assembled moved by %d, want 0", workers, got)
		}
	}
}

func TestNoiseMatchesP(t *testing.T) {
	// In the OneXr scenario the noise is exactly p everywhere.
	out, err := Run(simCfg(), runCfg(400))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range out {
		if math.Abs(d.Noise-0.1) > 1e-9 {
			t.Fatalf("%s noise = %v, want exactly 0.1", name, d.Noise)
		}
	}
}

// TestDecompositionIdentity verifies the exact binary-target identity
// E = N + (1−2N)·(B + (1−2B)·V) pointwise (here in aggregate per world,
// where it also holds because N is constant across test points in OneXr).
func TestDecompositionIdentity(t *testing.T) {
	world, err := synth.NewWorld(simCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runCfg(200)
	out, err := RunWorld(world, StandardClasses(world), cfg, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range out {
		// With constant noise N=p, averaging preserves the identity:
		// E = N + (1−2N)·avg(B + (1−2B)V).
		lhs := d.TestError
		rhs := d.Noise + (1-2*d.Noise)*(d.Bias+d.NetVariance)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("%s: identity violated: E=%v vs %v", name, lhs, rhs)
		}
	}
}

// TestDichotomySmallVsLargeN reproduces the paper's central simulation
// finding (Figure 3(A)): with abundant data NoJoin matches UseAll, and with
// scarce data NoJoin's error and net variance rise above UseAll's.
func TestDichotomySmallVsLargeN(t *testing.T) {
	sim := simCfg()
	large, err := Run(sim, Config{NTrain: 4000, NTest: 1000, L: 10, Worlds: 4, Seed: 11, Learner: nb.New()})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(sim, Config{NTrain: 150, NTest: 200, L: 10, Worlds: 4, Seed: 11, Learner: nb.New()})
	if err != nil {
		t.Fatal(err)
	}
	// Large n: NoJoin ≈ UseAll (FK is a fine representative).
	gapLarge := large["NoJoin"].TestError - large["UseAll"].TestError
	if gapLarge > 0.02 {
		t.Fatalf("large-n gap = %v, want ≈0", gapLarge)
	}
	// Small n: NoJoin must be visibly worse than UseAll, driven by net
	// variance.
	gapSmall := small["NoJoin"].TestError - small["UseAll"].TestError
	if gapSmall < 0.01 {
		t.Fatalf("small-n gap = %v, want > 0.01", gapSmall)
	}
	if small["NoJoin"].NetVariance <= large["NoJoin"].NetVariance {
		t.Fatalf("NoJoin net variance should rise as n falls: %v vs %v",
			small["NoJoin"].NetVariance, large["NoJoin"].NetVariance)
	}
}

// TestVarianceGrowsWithFKDomain reproduces Figure 3(B): at fixed n, larger
// |D_FK| hurts NoJoin.
func TestVarianceGrowsWithFKDomain(t *testing.T) {
	smallFK := simCfg()
	smallFK.NR = 10
	bigFK := simCfg()
	bigFK.NR = 300
	cfg := Config{NTrain: 600, NTest: 300, L: 10, Worlds: 4, Seed: 13, Learner: nb.New()}
	a, err := Run(smallFK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(bigFK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b["NoJoin"].TestError <= a["NoJoin"].TestError {
		t.Fatalf("NoJoin error should grow with |D_FK|: %v vs %v",
			b["NoJoin"].TestError, a["NoJoin"].TestError)
	}
	// UseAll barely moves (it has X_r directly).
	if math.Abs(b["UseAll"].TestError-a["UseAll"].TestError) > 0.05 {
		t.Fatalf("UseAll should be insensitive to |D_FK|: %v vs %v",
			b["UseAll"].TestError, a["UseAll"].TestError)
	}
}

func TestRunWorldDeterministic(t *testing.T) {
	world, err := synth.NewWorld(simCfg(), 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runCfg(200)
	a, err := RunWorld(world, StandardClasses(world), cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorld(world, StandardClasses(world), cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	for name := range a {
		if a[name] != b[name] {
			t.Fatalf("same-seed decompositions differ for %s", name)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(simCfg(), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := simCfg()
	bad.NR = 0
	if _, err := Run(bad, runCfg(100)); err == nil {
		t.Fatal("invalid sim config accepted")
	}
}

// TestRunWorldRejectsBadConfigs checks that RunWorld, which callers use
// without Run, refuses what Validate refuses of the fields it uses (all but
// Worlds) with an error rather than NaN results or a recovered panic, and
// refuses model classes it could not report apart: one without a name and
// two with the same name.
func TestRunWorldRejectsBadConfigs(t *testing.T) {
	world, err := synth.NewWorld(simCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	good := Config{NTrain: 100, NTest: 50, L: 4, Learner: nb.New()}
	std := StandardClasses(world)
	if _, err := RunWorld(world, std, good, stats.NewRNG(1)); err != nil {
		t.Fatalf("good config refused: %v", err)
	}
	with := func(edit func(*Config)) Config {
		c := good
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		classes []ModelClass
	}{
		{"L=0", with(func(c *Config) { c.L = 0 }), std},
		{"L=1", with(func(c *Config) { c.L = 1 }), std},
		{"NTest=0", with(func(c *Config) { c.NTest = 0 }), std},
		{"NTrain=0", with(func(c *Config) { c.NTrain = 0 }), std},
		{"nil learner", with(func(c *Config) { c.Learner = nil }), std},
		{"repeated class name", good, []ModelClass{std[0], {Name: std[0].Name, Features: std[1].Features}}},
		{"unnamed class", good, []ModelClass{std[0], {Features: std[1].Features}}},
	}
	for _, tc := range cases {
		out, err := RunWorld(world, tc.classes, tc.cfg, stats.NewRNG(1))
		var pe *pool.PanicError
		switch {
		case err == nil:
			t.Errorf("%s: accepted, returned %v", tc.name, out)
		case errors.As(err, &pe):
			t.Errorf("%s: refused by a recovered panic: %v", tc.name, pe.Value)
		}
	}
}

func TestDecomposeHandlesUnanimousModels(t *testing.T) {
	// All models identical → variance 0 and net variance 0.
	world, err := synth.NewWorld(simCfg(), 15)
	if err != nil {
		t.Fatal(err)
	}
	test := newTestSet(world, world.Sample(50, stats.NewRNG(1)))
	pred := make([]uint8, 3*test.rows.NumRows())
	for i := range pred {
		pred[i] = 1
	}
	d := test.decompose(pred)
	if d.Variance != 0 || d.NetVariance != 0 {
		t.Fatalf("unanimous models should have zero variance: %+v", d)
	}
}
