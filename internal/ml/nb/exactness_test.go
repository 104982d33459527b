package nb

import (
	"math"
	"testing"

	"hamlet/internal/dataset"
)

// Posterior returns the normalized class posterior for the given row;
// useful for tests and calibration studies.
func (mod *Model) Posterior(m *dataset.Design, row int) []float64 {
	logs := make([]float64, mod.stats.NumClasses)
	maxLog := math.Inf(-1)
	for c := range logs {
		logs[c] = mod.score(m, row, c)
		if logs[c] > maxLog {
			maxLog = logs[c]
		}
	}
	total := 0.0
	for c := range logs {
		logs[c] = math.Exp(logs[c] - maxLog)
		total += logs[c]
	}
	for c := range logs {
		logs[c] /= total
	}
	return logs
}

// TestPosteriorMatchesHandComputation pins the smoothed NB posterior to a
// hand-computed value on a fixed instance, guarding the exact smoothing
// arithmetic (add-one on both priors and likelihoods).
func TestPosteriorMatchesHandComputation(t *testing.T) {
	// 6 examples, binary Y (4 zeros, 2 ones), one feature of card 3.
	m := &dataset.Design{
		NumClasses: 2,
		Y:          []int32{0, 0, 0, 0, 1, 1},
		Features: []dataset.Feature{
			{Name: "f", Card: 3, Data: []int32{0, 0, 1, 2, 1, 1}},
		},
	}
	mod, err := New().Fit(m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// For a row with f = 1:
	//   P(Y=0) ∝ (4+1)/(6+2) · (1+1)/(4+3) = 5/8 · 2/7 = 10/56
	//   P(Y=1) ∝ (2+1)/(6+2) · (2+1)/(2+3) = 3/8 · 3/5 = 9/40
	// normalized: p0 = (10/56)/(10/56+9/40) = 0.44247..., p1 = 0.55752...
	p := mod.(*Model).Posterior(m, 2) // row 2 has f = 1
	w0 := (5.0 / 8.0) * (2.0 / 7.0)
	w1 := (3.0 / 8.0) * (3.0 / 5.0)
	want0 := w0 / (w0 + w1)
	if math.Abs(p[0]-want0) > 1e-12 {
		t.Fatalf("posterior[0] = %v, want %v", p[0], want0)
	}
	if math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatal("posterior not normalized")
	}
}

// TestAlphaScalesSmoothing verifies that a larger pseudo-count pulls the
// posterior toward uniform.
func TestAlphaScalesSmoothing(t *testing.T) {
	m := &dataset.Design{
		NumClasses: 2,
		Y:          []int32{0, 0, 0, 0, 0, 1},
		Features: []dataset.Feature{
			{Name: "f", Card: 2, Data: []int32{0, 0, 0, 0, 0, 1}},
		},
	}
	s := NewStats(m)
	sharp, err := ModelFromStats(s, []int{0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := ModelFromStats(s, []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	pSharp := sharp.Posterior(m, 0)
	pSmooth := smooth.Posterior(m, 0)
	// The sharp model is more confident in class 0 on a class-0 row.
	if pSharp[0] <= pSmooth[0] {
		t.Fatalf("alpha=0.1 posterior %v should exceed alpha=100 posterior %v", pSharp[0], pSmooth[0])
	}
	if math.Abs(pSmooth[0]-0.5) > 0.2 {
		t.Fatalf("heavy smoothing should approach uniform, got %v", pSmooth[0])
	}
}
