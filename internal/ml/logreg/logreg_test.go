package logreg

import (
	"math"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// separable returns a linearly separable binary design: Y = f0.
func separable(n int) *dataset.Design {
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	f0 := make([]int32, n)
	noise := make([]int32, n)
	r := stats.NewRNG(3)
	for i := 0; i < n; i++ {
		f0[i] = int32(i % 2)
		m.Y[i] = f0[i]
		noise[i] = int32(r.IntN(3))
	}
	m.Features = []dataset.Feature{
		{Name: "signal", Card: 2, Data: f0},
		{Name: "noise", Card: 3, Data: noise},
	}
	return m
}

func TestFitSeparableReachesZeroError(t *testing.T) {
	m := separable(400)
	for _, p := range []Penalty{L1, L2} {
		e, err := ml.Evaluate(New(p), m, m, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.02 {
			t.Fatalf("%v train error on separable data = %v", p, e)
		}
	}
}

func TestL1ZeroesNoiseKeepsSignal(t *testing.T) {
	m := separable(600)
	l := New(L1)
	l.Config.Lambda = 2e-3
	l.Config.Epochs = 40
	mod, err := l.Fit(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lm := mod.(*Model)
	if !lm.FeatureActive(0, 1e-6) {
		t.Fatal("L1 killed the signal feature")
	}
	if lm.FeatureActive(1, 1e-6) {
		t.Fatal("L1 kept the pure-noise feature")
	}
}

func TestL2KeepsAllWeightsSmall(t *testing.T) {
	m := separable(400)
	l := New(L2)
	l.Config.Lambda = 1e-2
	mod, err := l.Fit(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lm := mod.(*Model)
	// Strong ridge should shrink but not exactly zero the signal weights.
	nonzero := 0
	for _, w := range lm.W {
		if math.Abs(w) > 1e-9 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("L2 zeroed all weights exactly, which soft shrinkage should not do")
	}
	for _, w := range lm.W {
		if math.Abs(w) > 50 {
			t.Fatalf("ridge weight exploded: %v", w)
		}
	}
}

// Probs returns the softmax class distribution for the given row.
func (mod *Model) Probs(m *dataset.Design, row int) []float64 {
	active := mod.activeDims(m, row, make([]int, 0, len(mod.Features)))
	sc := make([]float64, mod.NumClasses)
	mod.scores(active, sc)
	softmaxInPlace(sc)
	return sc
}

func TestProbsNormalized(t *testing.T) {
	m := separable(100)
	mod, _ := New(L2).Fit(m, []int{0, 1})
	p := mod.(*Model).Probs(m, 0)
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("prob out of range: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestMulticlassSoftmax(t *testing.T) {
	// Three classes determined by a single card-3 feature.
	n := 600
	m := &dataset.Design{NumClasses: 3, Y: make([]int32, n)}
	f := make([]int32, n)
	for i := 0; i < n; i++ {
		f[i] = int32(i % 3)
		m.Y[i] = f[i]
	}
	m.Features = []dataset.Feature{{Name: "f", Card: 3, Data: f}}
	e, err := ml.Evaluate(New(L2), m, m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.02 {
		t.Fatalf("multiclass train RMSE = %v", e)
	}
}

func TestEmptyFeatureSetLearnsPrior(t *testing.T) {
	n := 200
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	for i := 0; i < 150; i++ {
		m.Y[i] = 0
	}
	for i := 150; i < n; i++ {
		m.Y[i] = 1
	}
	mod, err := New(L2).Fit(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Predict(m, 0) != 0 {
		t.Fatal("intercept-only model should predict the majority class")
	}
}

func TestConfigValidation(t *testing.T) {
	m := separable(10)
	l := New(L1)
	l.Config.Epochs = 0
	if _, err := l.Fit(m, []int{0}); err == nil {
		t.Fatal("zero epochs accepted")
	}
	l = New(L1)
	l.Config.Lambda = -1
	if _, err := l.Fit(m, []int{0}); err == nil {
		t.Fatal("negative lambda accepted")
	}
	l = New(L1)
	l.Config.LearningRate = 0
	if _, err := l.Fit(m, []int{0}); err == nil {
		t.Fatal("zero learning rate accepted")
	}
	if _, err := New(L1).Fit(m, []int{7}); err == nil {
		t.Fatal("out-of-range feature accepted")
	}
	empty := &dataset.Design{NumClasses: 2}
	if _, err := New(L1).Fit(empty, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	m := separable(200)
	a, err := New(L1).Fit(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(L1).Fit(m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.(*Model).W, b.(*Model).W
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same-seed training is not deterministic")
		}
	}
}

func TestPenaltyString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" {
		t.Fatal("Penalty.String broken")
	}
	if New(L1).Name() != "logreg-L1" {
		t.Fatalf("learner name = %q", New(L1).Name())
	}
}

func TestLastCategoryEncodesAsZeroVector(t *testing.T) {
	// A feature always at its last category contributes nothing: the model
	// must still learn from the intercept.
	n := 100
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	f := make([]int32, n)
	for i := range f {
		f[i] = 1 // last category of a card-2 feature
		m.Y[i] = 0
	}
	m.Features = []dataset.Feature{{Name: "f", Card: 2, Data: f}}
	mod, err := New(L2).Fit(m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	lm := mod.(*Model)
	for _, w := range lm.W {
		if w != 0 {
			t.Fatalf("weights should stay zero when the indicator never fires: %v", lm.W)
		}
	}
	if mod.Predict(m, 0) != 0 {
		t.Fatal("prediction should come from the intercept")
	}
}
