package tan

import (
	"math"
	"strings"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
)

// xorDesign builds the classic case where TAN beats NB: Y = X0 XOR X1.
// Naive Bayes cannot represent XOR; TAN with an X0→X1 edge can.
func xorDesign(n int, seed uint64) *dataset.Design {
	r := stats.NewRNG(seed)
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	a := make([]int32, n)
	b := make([]int32, n)
	for i := 0; i < n; i++ {
		a[i] = int32(r.IntN(2))
		b[i] = int32(r.IntN(2))
		m.Y[i] = a[i] ^ b[i]
	}
	m.Features = []dataset.Feature{
		{Name: "a", Card: 2, Data: a},
		{Name: "b", Card: 2, Data: b},
	}
	return m
}

func TestTANSolvesXOR(t *testing.T) {
	m := xorDesign(2000, 1)
	tanErr, err := ml.Evaluate(New(), m, m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nbErr, err := ml.Evaluate(nb.New(), m, m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tanErr > 0.02 {
		t.Fatalf("TAN XOR error = %v, want ≈0", tanErr)
	}
	if nbErr < 0.4 {
		t.Fatalf("NB XOR error = %v, expected ≈0.5 (cannot represent XOR)", nbErr)
	}
}

func TestTreeIsSpanningAndAcyclic(t *testing.T) {
	r := stats.NewRNG(5)
	n, k := 500, 6
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	for f := 0; f < k; f++ {
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(r.IntN(3))
		}
		m.Features = append(m.Features, dataset.Feature{Name: string(rune('a' + f)), Card: 3, Data: data})
	}
	for i := range m.Y {
		m.Y[i] = int32(r.IntN(2))
	}
	feats := []int{0, 1, 2, 3, 4, 5}
	mod, err := New().Fit(m, feats)
	if err != nil {
		t.Fatal(err)
	}
	tm := mod.(*Model)
	roots := 0
	for j := range feats {
		p := tm.Parent[j]
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= k || p == j {
			t.Fatalf("invalid parent %d for feature %d", p, j)
		}
	}
	if roots != 1 {
		t.Fatalf("tree has %d roots, want 1", roots)
	}
	// Acyclicity: walking parents from any node must reach the root.
	for j := range feats {
		seen := make(map[int]bool)
		cur := j
		for cur != -1 {
			if seen[cur] {
				t.Fatalf("cycle through feature %d", j)
			}
			seen[cur] = true
			cur = tm.Parent[cur]
		}
	}
}

// TestForeignFeaturesAttachToFK verifies the Appendix E pathology: when the
// FD FK → X_R holds, I(FK; F | Y) = H(F|Y) is maximal, so every foreign
// feature's tree parent is (transitively) the FK, and TAN's accuracy matches
// plain NB on FK alone.
func TestForeignFeaturesAttachToFK(t *testing.T) {
	r := stats.NewRNG(11)
	nR, n := 12, 3000
	// FD mapping: two foreign features determined by FK.
	f1Map := make([]int32, nR)
	f2Map := make([]int32, nR)
	for i := range f1Map {
		f1Map[i] = int32(r.IntN(3))
		f2Map[i] = int32(r.IntN(4))
	}
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	fk := make([]int32, n)
	f1 := make([]int32, n)
	f2 := make([]int32, n)
	for i := 0; i < n; i++ {
		fk[i] = int32(r.IntN(nR))
		f1[i] = f1Map[fk[i]]
		f2[i] = f2Map[fk[i]]
		// Y depends on f1 with noise.
		y := int32(int(f1[i]) % 2)
		if !r.Bernoulli(0.9) {
			y = 1 - y
		}
		m.Y[i] = y
	}
	m.Features = []dataset.Feature{
		{Name: "FK", Card: nR, Data: fk, IsFK: true},
		{Name: "F1", Card: 3, Data: f1},
		{Name: "F2", Card: 4, Data: f2},
	}
	mod, err := New().Fit(m, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := mod.(*Model)
	// Both foreign features must hang off FK (feature position 0): under
	// the FD, I(FK;F|Y) = H(F|Y) ≥ I(F;F'|Y), with ties broken toward FK
	// because it is scanned first.
	for j := 1; j <= 2; j++ {
		cur := j
		for tm.Parent[cur] != -1 {
			cur = tm.Parent[cur]
		}
		if cur != 0 {
			t.Fatalf("foreign feature %d does not descend from FK", j)
		}
	}
}

func TestTANMatchesNBWithSingleFeature(t *testing.T) {
	m := xorDesign(500, 3)
	tanErr, err := ml.Evaluate(New(), m, m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	nbErr, err := ml.Evaluate(nb.New(), m, m, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if tanErr != nbErr {
		t.Fatalf("single-feature TAN (%v) must equal NB (%v)", tanErr, nbErr)
	}
}

func TestTANEmptyFeatureSetIsPrior(t *testing.T) {
	n := 100
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	for i := 60; i < n; i++ {
		m.Y[i] = 1
	}
	mod, err := New().Fit(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Predict(m, 0) != 0 {
		t.Fatal("prior-only TAN should predict majority class")
	}
}

func TestTANValidation(t *testing.T) {
	m := xorDesign(10, 1)
	if _, err := New().Fit(m, []int{9}); err == nil {
		t.Fatal("out-of-range feature accepted")
	}
	// A NaN or +Inf alpha makes every CPT entry NaN, so every row would be
	// predicted class 0; both are refused like a nonpositive one.
	for _, alpha := range []float64{0, -1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		l := New()
		l.Alpha = alpha
		if _, err := l.Fit(m, []int{0}); err == nil || !strings.Contains(err.Error(), "positive and finite") {
			t.Errorf("alpha %v: Fit error %v, want a positive-and-finite refusal", alpha, err)
		}
	}
	empty := &dataset.Design{NumClasses: 2}
	if _, err := New().Fit(empty, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}
