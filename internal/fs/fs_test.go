package fs

import (
	"reflect"
	"strings"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
)

// signalNoise builds a design with one strongly predictive feature (index 0),
// one weakly predictive feature (index 1), and pure-noise features after.
func signalNoise(n, noiseFeatures int, seed uint64) *dataset.Design {
	r := stats.NewRNG(seed)
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	strong := make([]int32, n)
	weak := make([]int32, n)
	for i := 0; i < n; i++ {
		strong[i] = int32(r.IntN(2))
		y := strong[i]
		if !r.Bernoulli(0.95) {
			y = 1 - y
		}
		m.Y[i] = y
		weak[i] = y
		if !r.Bernoulli(0.65) {
			weak[i] = 1 - weak[i]
		}
	}
	m.Features = append(m.Features,
		dataset.Feature{Name: "strong", Card: 2, Data: strong},
		dataset.Feature{Name: "weak", Card: 2, Data: weak},
	)
	for f := 0; f < noiseFeatures; f++ {
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(r.IntN(4))
		}
		m.Features = append(m.Features, dataset.Feature{Name: "noise" + string(rune('0'+f)), Card: 4, Data: data})
	}
	return m
}

func halves(m *dataset.Design) (train, val *dataset.Design) {
	n := m.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return m.SelectRows(idx[:n/2]), m.SelectRows(idx[n/2:])
}

func hasFeature(r Result, f int) bool {
	for _, x := range r.Features {
		if x == f {
			return true
		}
	}
	return false
}

func TestForwardPicksSignalDropsNoise(t *testing.T) {
	train, val := halves(signalNoise(3000, 4, 1))
	res, err := Forward{}.Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFeature(res, 0) {
		t.Fatalf("forward selection missed the strong feature: %v", res.Features)
	}
	for _, f := range res.Features {
		if f >= 2 {
			t.Fatalf("forward selection kept noise feature %d: %v", f, res.Features)
		}
	}
	if res.Evaluations == 0 {
		t.Fatal("evaluation count not tracked")
	}
}

func TestBackwardDropsNoise(t *testing.T) {
	train, val := halves(signalNoise(3000, 3, 2))
	res, err := Backward{}.Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFeature(res, 0) {
		t.Fatalf("backward selection dropped the strong feature: %v", res.Features)
	}
}

func TestForwardStopsWhenNothingHelps(t *testing.T) {
	// All-noise design: forward selection should stop at the empty set or
	// near it (a spurious single pick is possible but bounded).
	r := stats.NewRNG(3)
	n := 2000
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	for i := range m.Y {
		m.Y[i] = int32(r.IntN(2))
	}
	for f := 0; f < 4; f++ {
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(r.IntN(3))
		}
		m.Features = append(m.Features, dataset.Feature{Name: string(rune('a' + f)), Card: 3, Data: data})
	}
	train, val := halves(m)
	res, err := Forward{}.Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) > 2 {
		t.Fatalf("forward selected %d features from pure noise", len(res.Features))
	}
}

func TestFilterRankOrdersByScore(t *testing.T) {
	train, _ := halves(signalNoise(3000, 3, 4))
	order := MIFilter().Rank(train)
	if order[0] != 0 {
		t.Fatalf("MI filter should rank the strong feature first, got %v", order)
	}
}

func TestMIFilterSelectsInformativePrefix(t *testing.T) {
	train, val := halves(signalNoise(3000, 4, 5))
	res, err := MIFilter().Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFeature(res, 0) {
		t.Fatalf("MI filter missed the strong feature: %v", res.Features)
	}
}

func TestIGRFilterSelects(t *testing.T) {
	train, val := halves(signalNoise(3000, 4, 6))
	res, err := IGRFilter().Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFeature(res, 0) {
		t.Fatalf("IGR filter missed the strong feature: %v", res.Features)
	}
}

// TestIGRPrefersSmallDomain reproduces §3.1.2's dichotomy at the filter
// level: with Y determined by a small-domain feature that is itself
// determined by a large-domain FK, MI ranks FK at least as high as F, while
// IGR ranks F strictly above FK.
func TestIGRPrefersSmallDomain(t *testing.T) {
	n, dFK := 4000, 64
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	fk := make([]int32, n)
	f := make([]int32, n)
	for i := 0; i < n; i++ {
		fk[i] = int32(i % dFK)
		f[i] = fk[i] % 2
		m.Y[i] = f[i]
	}
	m.Features = []dataset.Feature{
		{Name: "FK", Card: dFK, Data: fk, IsFK: true},
		{Name: "F", Card: 2, Data: f},
	}
	miOrder := MIFilter().Rank(m)
	igrOrder := IGRFilter().Rank(m)
	if igrOrder[0] != 1 {
		t.Fatalf("IGR should rank the small-domain feature first, got %v", igrOrder)
	}
	// MI is equal here (both fully determine Y); stable sort keeps FK first.
	if miOrder[0] != 0 {
		t.Fatalf("MI rank = %v; expected FK first (ties keep design order)", miOrder)
	}
}

func TestEmbeddedL1DropsNoise(t *testing.T) {
	train, val := halves(signalNoise(2000, 3, 7))
	e := Embedded{Penalty: logreg.L1, Lambdas: []float64{2e-2}}
	res, err := e.Select(nil, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFeature(res, 0) {
		t.Fatalf("embedded L1 dropped the strong feature: %v", res.Features)
	}
	for _, f := range res.Features {
		if f >= 2 {
			t.Fatalf("embedded L1 kept noise feature %d", f)
		}
	}
}

func TestEmbeddedFitBestReturnsModel(t *testing.T) {
	train, val := halves(signalNoise(1000, 2, 8))
	e := Embedded{Penalty: logreg.L2}
	mod, err := e.FitBest(train, val)
	if err != nil {
		t.Fatal(err)
	}
	metric := ml.MetricFor(train.NumClasses)
	errV := metric(ml.PredictAll(mod, val), val.Y)
	if errV > 0.2 {
		t.Fatalf("embedded best model error = %v", errV)
	}
}

// opaqueNB hides the Naive Bayes learner's type from NewEvaluator, so
// selection runs through genericEvaluator (refit and PredictAll per subset).
type opaqueNB struct{ *nb.Learner }

func TestNBFastPathMatchesGenericPath(t *testing.T) {
	train, val := halves(signalNoise(1500, 3, 9))
	fast := NewEvaluator(nb.New(), train, val)
	if _, ok := fast.(*nbEvaluator); !ok {
		t.Fatal("NB learner should get the decomposable evaluator")
	}
	slow := NewEvaluator(opaqueNB{nb.New()}, train, val)
	if _, ok := slow.(*genericEvaluator); !ok {
		t.Fatal("the wrapped learner should get the generic evaluator")
	}
	for _, subset := range [][]int{nil, {0}, {0, 1}, {2, 4}, {0, 1, 2, 3, 4}, {4, 0}, {0, 1}} {
		a, err := fast.Eval(subset)
		if err != nil {
			t.Fatal(err)
		}
		b, err := slow.Eval(subset)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("fast path %v != generic %v on subset %v", a, b, subset)
		}
	}
	// Whole selection runs: every method must return an identical Result
	// (features, validation error, evaluation count) on both paths.
	methods := []Method{Forward{}, Backward{}, MIFilter(), IGRFilter(), CrossValidated{Inner: Forward{}, K: 3, Seed: 4}}
	for _, seed := range []uint64{9, 13} {
		train, val := halves(signalNoise(1200, 5, seed))
		for _, meth := range methods {
			a, err := meth.Select(nb.New(), train, val)
			if err != nil {
				t.Fatal(err)
			}
			b, err := meth.Select(opaqueNB{nb.New()}, train, val)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d %s: fast path %+v != generic %+v", seed, meth.Name(), a, b)
			}
		}
	}
}

func TestNBEvaluatorReturnsModelErrors(t *testing.T) {
	train, val := halves(signalNoise(100, 1, 14))
	ev := NewEvaluator(nb.New(), train, val)
	if _, err := ev.Eval([]int{train.NumFeatures()}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: err = %v", err)
	}
	ev = NewEvaluator(&nb.Learner{Alpha: 0}, train, val)
	if _, err := ev.Eval([]int{0}); err == nil || !strings.Contains(err.Error(), "alpha must be positive") {
		t.Fatalf("alpha 0: err = %v", err)
	}
}

func TestGenericEvaluatorUsedForOtherLearners(t *testing.T) {
	train, val := halves(signalNoise(200, 1, 10))
	ev := NewEvaluator(logreg.New(logreg.L2), train, val)
	if _, ok := ev.(*genericEvaluator); !ok {
		t.Fatal("non-NB learner should get the generic evaluator")
	}
	if _, err := ev.Eval([]int{0}); err != nil {
		t.Fatal(err)
	}
	if ev.Count() != 1 {
		t.Fatal("Count not incremented")
	}
}

func TestSelectValidatesInputs(t *testing.T) {
	train, val := halves(signalNoise(100, 1, 11))
	bad := &dataset.Design{NumClasses: 3, Y: val.Y, Features: val.Features}
	methods := []Method{Forward{}, Backward{}, MIFilter(), IGRFilter(), Embedded{Penalty: logreg.L1}}
	for _, meth := range methods {
		if _, err := meth.Select(nb.New(), train, bad); err == nil {
			t.Errorf("%s accepted mismatched class counts", meth.Name())
		}
		if _, err := meth.Select(nb.New(), nil, val); err == nil {
			t.Errorf("%s accepted nil train", meth.Name())
		}
	}
	empty := &dataset.Design{NumClasses: 2}
	if _, err := (Forward{}).Select(nb.New(), empty, empty); err == nil {
		t.Error("empty design accepted")
	}
}

func TestResultFeatureNames(t *testing.T) {
	m := signalNoise(10, 1, 12)
	r := Result{Features: []int{1, 0}}
	names := r.FeatureNames(m)
	if names[0] != "weak" || names[1] != "strong" {
		t.Fatalf("names = %v", names)
	}
}

func TestMethodNames(t *testing.T) {
	if (Forward{}).Name() != "forward" || (Backward{}).Name() != "backward" {
		t.Fatal("wrapper names")
	}
	if MIFilter().Name() != "filter-MI" || IGRFilter().Name() != "filter-IGR" {
		t.Fatal("filter names")
	}
	if (Embedded{Penalty: logreg.L1}).Name() != "embedded-L1" {
		t.Fatal("embedded name")
	}
}
