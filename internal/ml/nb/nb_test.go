package nb

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// tiny returns a small design matrix with a perfectly predictive feature 0
// and a noise feature 1.
func tiny() *dataset.Design {
	return &dataset.Design{
		NumClasses: 2,
		Y:          []int32{0, 0, 0, 1, 1, 1},
		Features: []dataset.Feature{
			{Name: "signal", Card: 2, Data: []int32{0, 0, 0, 1, 1, 1}},
			{Name: "noise", Card: 3, Data: []int32{0, 1, 2, 0, 1, 2}},
		},
	}
}

func TestStatsCounts(t *testing.T) {
	s := NewStats(tiny())
	if s.N != 6 || s.NumClasses != 2 {
		t.Fatalf("stats shape: N=%d classes=%d", s.N, s.NumClasses)
	}
	if s.ClassCounts[0] != 3 || s.ClassCounts[1] != 3 {
		t.Fatalf("class counts = %v", s.ClassCounts)
	}
	// Feature 0: class 0 has value 0 three times, value 1 zero times.
	if s.Counts[0][0] != 3 || s.Counts[0][1] != 0 || s.Counts[0][2] != 0 || s.Counts[0][3] != 3 {
		t.Fatalf("signal counts = %v", s.Counts[0])
	}
	// Feature 1 (card 3): uniform within each class.
	for c := 0; c < 2; c++ {
		for v := 0; v < 3; v++ {
			if s.Counts[1][c*3+v] != 1 {
				t.Fatalf("noise counts = %v", s.Counts[1])
			}
		}
	}
}

func TestPredictPerfectFeature(t *testing.T) {
	m := tiny()
	mod, err := New().Fit(m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Y {
		if got := mod.Predict(m, i); got != m.Y[i] {
			t.Fatalf("row %d predicted %d, want %d", i, got, m.Y[i])
		}
	}
}

func TestPredictEmptySubsetIsPrior(t *testing.T) {
	m := tiny()
	m.Y = []int32{0, 0, 0, 0, 1, 1} // majority class 0
	mod, err := New().Fit(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Y {
		if mod.Predict(m, i) != 0 {
			t.Fatal("prior-only model must predict the majority class")
		}
	}
}

func TestPosteriorNormalizedAndConsistent(t *testing.T) {
	m := tiny()
	mod, _ := New().Fit(m, []int{0, 1})
	nbMod := mod.(*Model)
	for i := range m.Y {
		p := nbMod.Posterior(m, i)
		sum := 0.0
		best, bestP := 0, -1.0
		for c, v := range p {
			sum += v
			if v > bestP {
				bestP, best = v, c
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior sums to %v", sum)
		}
		if int32(best) != mod.Predict(m, i) {
			t.Fatal("Predict disagrees with argmax Posterior")
		}
	}
}

func TestPosteriorPropertyNormalized(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 20 + r.IntN(100)
		classes := 2 + r.IntN(3)
		card := 2 + r.IntN(5)
		m := &dataset.Design{NumClasses: classes, Y: make([]int32, n)}
		data := make([]int32, n)
		for i := 0; i < n; i++ {
			m.Y[i] = int32(r.IntN(classes))
			data[i] = int32(r.IntN(card))
		}
		m.Features = []dataset.Feature{{Name: "f", Card: card, Data: data}}
		mod, err := New().Fit(m, []int{0})
		if err != nil {
			return false
		}
		p := mod.(*Model).Posterior(m, 0)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceSmoothingHandlesUnseenValues(t *testing.T) {
	// Train where feature only takes value 0; predict a row with value 1.
	train := &dataset.Design{
		NumClasses: 2,
		Y:          []int32{0, 1},
		Features:   []dataset.Feature{{Name: "f", Card: 3, Data: []int32{0, 0}}},
	}
	test := &dataset.Design{
		NumClasses: 2,
		Y:          []int32{0},
		Features:   []dataset.Feature{{Name: "f", Card: 3, Data: []int32{1}}},
	}
	mod, err := New().Fit(train, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got := mod.Predict(test, 0)
	if got != 0 && got != 1 {
		t.Fatalf("prediction on unseen value = %d", got)
	}
	p := mod.(*Model).Posterior(test, 0)
	if math.Abs(p[0]-0.5) > 1e-9 {
		t.Fatalf("unseen value should give the (uniform) prior, got %v", p)
	}
}

func TestModelFromStatsErrors(t *testing.T) {
	s := NewStats(tiny())
	if _, err := ModelFromStats(s, []int{5}, 1); err == nil {
		t.Fatal("out-of-range feature accepted")
	}
	for _, alpha := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ModelFromStats(s, []int{0}, alpha); err == nil {
			t.Fatalf("alpha %v accepted by ModelFromStats", alpha)
		}
		if _, err := (&Learner{Alpha: alpha}).Fit(tiny(), []int{0}); err == nil {
			t.Fatalf("alpha %v accepted by Learner.Fit", alpha)
		}
	}
}

// TestFitCountsOnlyItsSubset pins the subset-only fit: Learner.Fit
// tabulates the requested features and no other, counts that as one
// statistics build, and predicts exactly as a model over the full
// statistics does.
func TestFitCountsOnlyItsSubset(t *testing.T) {
	r := stats.NewRNG(17)
	m := randomDesign(r, 300, 3, []int{4, 7, 2, 30, 5})
	for _, subset := range [][]int{nil, {3}, {4, 1}, {1, 1, 3}} {
		builds := statsBuilds.Value()
		mod, err := New().Fit(m, subset)
		if err != nil {
			t.Fatal(err)
		}
		if got := statsBuilds.Value() - builds; got != 1 {
			t.Fatalf("subset %v: Fit counted %d statistics builds, want 1", subset, got)
		}
		fit := mod.(*Model)
		for f, counts := range fit.stats.Counts {
			if in := slices.Contains(subset, f); in != (counts != nil) {
				t.Fatalf("subset %v: feature %d tabulated = %v", subset, f, counts != nil)
			}
		}
		full, err := ModelFromStats(NewStats(m), subset, 1)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < m.NumRows(); row++ {
			if got, want := fit.Predict(m, row), full.Predict(m, row); got != want {
				t.Fatalf("subset %v row %d: Fit model %d, full-statistics model %d", subset, row, got, want)
			}
			got, want := fit.Posterior(m, row), full.Posterior(m, row)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("subset %v row %d class %d: posterior %v, want %v", subset, row, c, got[c], want[c])
				}
			}
		}
	}
}

func TestLearnerFitChecksFeatures(t *testing.T) {
	if _, err := New().Fit(tiny(), []int{-1}); err == nil {
		t.Fatal("negative feature index accepted")
	}
}

func TestDecomposabilityMatchesDirectFit(t *testing.T) {
	// A model assembled from precomputed stats over a subset must predict
	// identically to a model fit directly on that subset's design.
	r := stats.NewRNG(99)
	n := 300
	m := &dataset.Design{NumClasses: 3, Y: make([]int32, n)}
	cards := []int{2, 4, 5}
	for f, card := range cards {
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(r.IntN(card))
		}
		m.Features = append(m.Features, dataset.Feature{Name: string(rune('a' + f)), Card: card, Data: data})
	}
	for i := range m.Y {
		m.Y[i] = int32((int(m.Features[0].Data[i]) + r.IntN(2)) % 3)
	}
	s := NewStats(m)
	subset := []int{0, 2}
	fromStats, err := ModelFromStats(s, subset, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub := m.Subset(subset)
	direct, err := New().Fit(sub, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if fromStats.Predict(m, i) != direct.Predict(sub, i) {
			t.Fatalf("decomposed and direct models disagree at row %d", i)
		}
	}
}

func TestEvaluateViaInterface(t *testing.T) {
	m := tiny()
	errRate, err := ml.Evaluate(New(), m, m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if errRate != 0 {
		t.Fatalf("train error on separable data = %v", errRate)
	}
}

func TestGeneralizationBeatsChance(t *testing.T) {
	// Noisy but learnable: P(Y = f(x)) = 0.85.
	r := stats.NewRNG(5)
	n := 2000
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	data := make([]int32, n)
	for i := 0; i < n; i++ {
		data[i] = int32(r.IntN(4))
		y := int32(int(data[i]) % 2)
		if !r.Bernoulli(0.85) {
			y = 1 - y
		}
		m.Y[i] = y
	}
	m.Features = []dataset.Feature{{Name: "f", Card: 4, Data: data}}
	train := m.SelectRows(seqRange(0, 1000))
	test := m.SelectRows(seqRange(1000, 2000))
	e, err := ml.Evaluate(New(), train, test, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if e > 0.25 {
		t.Fatalf("test error %v, want ≈0.15", e)
	}
}

func seqRange(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
