package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical words of 64", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched on %d of 64 words", same)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(123)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / float64(n)
	if math.Abs(f-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := NewRNG(5)
	c := NewCategorical([]float64{1, 0, 3})
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[c.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestCategoricalPanicsOnInvalid(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, -2}, {1, math.Inf(1)}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCategorical(%v) did not panic", w)
				}
			}()
			NewCategorical(w)
		}()
	}
}

// linearScan is the reference draw the cumulative table replaces: scale the
// word's Float64 by the positive mass, then walk the weights accumulating it
// and return the first positive-weight index whose running sum exceeds the
// draw.
func linearScan(weights []float64, x uint64) int {
	return scanFrom(weights, positiveMass(weights), x)
}

// positiveMass is the sum of the positive weights, in order.
func positiveMass(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// scanFrom is linearScan given the weights' positive mass.
func scanFrom(weights []float64, total float64, x uint64) int {
	u := rand.New(replay(x)).Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// replay is a rand.Source that returns one word forever.
type replay uint64

func (r replay) Uint64() uint64 { return uint64(r) }

// TestCategoricalMatchesLinearScan pins the guide-table draw to the linear
// scan draw for draw: the same index from the same stream, and the stream
// left in the same state (the next Uint64 agrees after every draw).
func TestCategoricalMatchesLinearScan(t *testing.T) {
	uniform := make([]float64, 40)
	for i := range uniform {
		uniform[i] = 1
	}
	cases := map[string][]float64{
		"zeros-at-start":   {0, 0, 0, 1, 2, 3},
		"zeros-in-middle":  {1, 0, 0, 2, 0, 3},
		"zeros-at-end":     {1, 2, 3, 0, 0, 0},
		"negative-weights": {-1, 2, -3, 0, 4},
		"single-positive":  {0, 0, 5, 0},
		"singleton":        {0.25},
		"uniform":          uniform,
		"zipf-40-2":        NewZipf(40, 2).Probs(),
		"needle-0.5":       NeedleAndThread{N: 40, NeedleProb: 0.5}.Probs(),
		"needle-0.8":       NeedleAndThread{N: 40, NeedleProb: 0.8}.Probs(),
	}
	gen := NewRNG(77)
	for v := 0; v < 8; v++ {
		w := make([]float64, 1+gen.IntN(60))
		for i := range w {
			switch gen.IntN(4) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = gen.Float64() * 1e-9
			default:
				w[i] = gen.Float64() * 10
			}
		}
		w[gen.IntN(len(w))] = 1 + gen.Float64()
		cases[fmt.Sprintf("random-%d", v)] = w
	}
	// Random draws almost never land on a cumulative boundary, so draw
	// every u = k exactly over integer weights with total 8 as well.
	ties := []float64{1, 0, 1, 2, 0, 4, 0}
	for k := uint64(0); k < 8; k++ {
		// Float64 is the low 53 bits of a word over 2^53: k<<50 gives k/8.
		if i, j := NewCategorical(ties).SampleWord(k<<50), linearScan(ties, k<<50); i != j {
			t.Fatalf("tie u=%d: Sample = %d, linear scan = %d", k, i, j)
		}
	}
	for name, w := range cases {
		c := NewCategorical(w)
		for seed := uint64(1); seed <= 4; seed++ {
			got, want := NewRNG(seed), NewRNG(seed)
			for d := 0; d < 3000; d++ {
				if i, j := c.Sample(got), linearScan(w, want.Uint64()); i != j {
					t.Fatalf("%s seed %d draw %d: Sample = %d, linear scan = %d", name, seed, d, i, j)
				}
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("%s seed %d draw %d: streams diverged after the draw", name, seed, d)
				}
			}
		}
	}
}

// FuzzCategorical decodes a weight vector from the input, three bytes per
// entry, and checks the guide-table draw against the linear scan at the
// given word and at the first and last word of every bucket, with the given
// word's top bits above the 53 a draw reads. A vector whose positive mass is
// zero or overflows must make NewCategorical panic instead.
func FuzzCategorical(f *testing.F) {
	f.Add([]byte{3, 0, 0}, uint64(0))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 3, 0, 1, 1, 0, 0, 3, 0, 3}, uint64(1)<<52)
	f.Add([]byte{2, 0, 1, 3, 0xff, 0xff, 4, 0x12, 0x34, 0, 0, 0}, ^uint64(0))
	f.Add([]byte{4, 0xff, 0xff, 4, 0xff, 0xff, 4, 0xff, 0xff}, uint64(12345))
	f.Add(bytes.Repeat([]byte{3, 0, 0}, 2048), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, data []byte, x uint64) {
		if len(data) > 3*2048 {
			data = data[:3*2048]
		}
		w := make([]float64, len(data)/3)
		for i := range w {
			m := float64(uint16(data[3*i+1])<<8|uint16(data[3*i+2])) + 1
			switch data[3*i] % 5 {
			case 0:
				w[i] = 0
			case 1:
				w[i] = -m
			case 2:
				w[i] = m * 1e-300
			case 3:
				w[i] = m
			case 4:
				w[i] = m * 1e300
			}
		}
		total := positiveMass(w)
		if len(w) == 0 || !(total > 0) || math.IsInf(total, 1) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCategorical accepted %d weights of mass %v", len(w), total)
				}
			}()
			NewCategorical(w)
			return
		}
		c := NewCategorical(w)
		check := func(word uint64) {
			if i, j := c.SampleWord(word), scanFrom(w, total, word); i != j {
				t.Fatalf("%d weights, word %#x: Sample = %d, linear scan = %d", len(w), word, i, j)
			}
		}
		check(x)
		high := x >> 53 << 53
		for b := uint64(0); b < uint64(len(c.guide)); b++ {
			first := b << c.shift
			last := first | (1<<c.shift - 1)
			check(first)
			check(last)
			check(high | last)
		}
	})
}

// TestRNGMatchesRand pins RNG's direct draws to math/rand/v2 over the same
// PCG: any interleaving of RNG's own methods and the embedded rand.Rand's
// yields the values and leaves the stream where rand.Rand does.
func TestRNGMatchesRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, 0x9e3779b97f4a7c15} {
		got := NewRNG(seed)
		want := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		pick := rand.New(rand.NewPCG(seed, 7))
		for step := 0; step < 2000; step++ {
			switch pick.IntN(8) {
			case 0:
				if a, b := got.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d step %d: Uint64 = %#x, want %#x", seed, step, a, b)
				}
			case 1:
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d step %d: Float64 = %v, want %v", seed, step, a, b)
				}
			case 2:
				p := pick.Float64()
				if a, b := got.Bernoulli(p), want.Float64() < p; a != b {
					t.Fatalf("seed %d step %d: Bernoulli(%v) = %v, want %v", seed, step, p, a, b)
				}
			case 3:
				n := 1 << pick.IntN(12)
				if a, b := got.IntN(n), want.IntN(n); a != b {
					t.Fatalf("seed %d step %d: IntN(%d) = %d, want %d", seed, step, n, a, b)
				}
			case 4:
				n := 1 + pick.IntN(1000)
				if a, b := got.IntN(n), want.IntN(n); a != b {
					t.Fatalf("seed %d step %d: IntN(%d) = %d, want %d", seed, step, n, a, b)
				}
			case 5:
				n := pick.IntN(20)
				if a, b := got.Perm(n), want.Perm(n); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("seed %d step %d: Perm(%d) = %v, want %v", seed, step, n, a, b)
				}
			case 6:
				child := got.Split()
				wantChild := rand.New(rand.NewPCG(want.Uint64(), want.Uint64()))
				for k := 0; k < 4; k++ {
					if a, b := child.Uint64(), wantChild.Uint64(); a != b {
						t.Fatalf("seed %d step %d: Split child word %d = %#x, want %#x", seed, step, k, a, b)
					}
				}
			case 7:
				if a, b := got.Rand.Uint64(), want.Uint64(); a != b {
					t.Fatalf("seed %d step %d: embedded Uint64 = %#x, want %#x", seed, step, a, b)
				}
			}
		}
	}
}

// TestIntNPowerOfTwoIsLowBits pins the identity sampling kernels use for
// fair coins: IntN of a power of two is the next word's low bits.
func TestIntNPowerOfTwoIsLowBits(t *testing.T) {
	a, b := NewRNG(3), NewRNG(3)
	for i := 0; i < 1000; i++ {
		n := 1 << (i % 16)
		if x, y := a.IntN(n), int(b.Uint64()&uint64(n-1)); x != y {
			t.Fatalf("draw %d: IntN(%d) = %d, low bits = %d", i, n, x, y)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(77)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(4, 0)
	for i, p := range z.Probs() {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("Zipf(s=0) prob[%d] = %v, want 0.25", i, p)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	z := NewZipf(10, 2)
	probs := z.Probs()
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[i-1] {
			t.Fatalf("Zipf probabilities not decreasing at %d: %v", i, probs)
		}
	}
	if probs[0] < 0.6 {
		t.Fatalf("Zipf(s=2, n=10) head mass = %v, expected dominant head", probs[0])
	}
}

func TestZipfSampleMatchesProbs(t *testing.T) {
	r := NewRNG(31)
	z := NewZipf(6, 1)
	probs := z.Probs()
	counts := make([]int, 6)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i, p := range probs {
		f := float64(counts[i]) / n
		if math.Abs(f-p) > 0.01 {
			t.Fatalf("Zipf empirical[%d]=%v vs theoretical %v", i, f, p)
		}
	}
}

func TestZipfPanicsOnNonpositiveN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func TestNeedleAndThreadProbs(t *testing.T) {
	d := NeedleAndThread{N: 5, NeedleProb: 0.5}
	p := d.Probs()
	if p[0] != 0.5 {
		t.Fatalf("needle prob = %v", p[0])
	}
	for i := 1; i < 5; i++ {
		if math.Abs(p[i]-0.125) > 1e-12 {
			t.Fatalf("thread prob[%d] = %v, want 0.125", i, p[i])
		}
	}
}

// TestNeedleAndThreadSample draws through Categorical over Probs, the way
// synth draws malign-skew FKs.
func TestNeedleAndThreadSample(t *testing.T) {
	r := NewRNG(41)
	d := NewCategorical(NeedleAndThread{N: 8, NeedleProb: 0.4}.Probs())
	counts := make([]int, 8)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.4) > 0.02 {
		t.Fatalf("needle frequency = %v, want ≈0.4", f)
	}
	for i := 1; i < 8; i++ {
		if counts[i] == 0 {
			t.Fatalf("thread value %d never sampled", i)
		}
	}
}

func TestNeedleAndThreadSingleton(t *testing.T) {
	r := NewRNG(1)
	d := NeedleAndThread{N: 1, NeedleProb: 0.2}
	c := NewCategorical(d.Probs())
	for i := 0; i < 10; i++ {
		if c.Sample(r) != 0 {
			t.Fatal("singleton distribution must always sample 0")
		}
	}
	if p := d.Probs(); p[0] != 1 {
		t.Fatalf("singleton prob = %v, want 1", p[0])
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); !approxEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); !approxEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("zero-variance correlation = %v, want 0", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Fatalf("single-point correlation = %v, want 0", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rr := NewRNG(seed)
		n := 2 + rr.IntN(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rr.Float64()
			y[i] = rr.Float64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approxEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate mean should be 0")
	}
}

func TestRMSEAndZeroOne(t *testing.T) {
	pred := []int32{1, 2, 3, 4}
	truth := []int32{1, 2, 2, 2}
	if e := ZeroOneError(pred, truth); !approxEq(e, 0.5, 1e-12) {
		t.Fatalf("zero-one = %v", e)
	}
	// RMSE: sqrt((0+0+1+4)/4) = sqrt(1.25).
	if e := RMSE(pred, truth); !approxEq(e, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("rmse = %v", e)
	}
	if RMSE(nil, nil) != 0 || ZeroOneError(nil, nil) != 0 {
		t.Fatal("empty error metrics should be 0")
	}
}

// TestRNGStreamsShareNoState checks that every RNG owns its state: a parent,
// its Split children and a second NewRNG of the same seed each yield their
// own rand.PCG stream however draws through RNG's own methods and through
// the embedded Rand interleave across them.
func TestRNGStreamsShareNoState(t *testing.T) {
	const golden = 0x9e3779b97f4a7c15
	parent, twin := NewRNG(5), NewRNG(5)
	wantParent := rand.New(rand.NewPCG(5, golden))
	c1 := parent.Split()
	want1 := rand.New(rand.NewPCG(wantParent.Uint64(), wantParent.Uint64()))
	c2 := parent.Split()
	want2 := rand.New(rand.NewPCG(wantParent.Uint64(), wantParent.Uint64()))
	wantTwin := rand.New(rand.NewPCG(5, golden))
	gens := []*RNG{parent, twin, c1, c2}
	wants := []*rand.Rand{wantParent, wantTwin, want1, want2}
	pick := rand.New(rand.NewPCG(1, 2))
	for step := 0; step < 4000; step++ {
		k := pick.IntN(len(gens))
		var a, b uint64
		switch pick.IntN(3) {
		case 0:
			a, b = gens[k].Uint64(), wants[k].Uint64()
		case 1:
			a, b = gens[k].Rand.Uint64(), wants[k].Uint64()
		case 2:
			a, b = uint64(gens[k].IntN(1000)), uint64(wants[k].IntN(1000))
		}
		if a != b {
			t.Fatalf("step %d: generator %d drew %d, want %d", step, k, a, b)
		}
	}
}

// TestCoinMatchesFloat64 checks Coin's integer test against Float64() < p at
// the words on either side of the threshold and at random words, for
// probabilities at and near 0, 1/2 and 1 and for ones the sampler never
// passes (negative, above 1, NaN).
func TestCoinMatchesFloat64(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0x1p-53, math.Nextafter(0x1p-53, 1), 0.1, 0.25,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 0.9, math.Nextafter(1, 0), 1,
		-0.1, math.Inf(-1), 1.5, math.Inf(1), math.NaN()}
	gen := NewRNG(11)
	for i := 0; i < 200; i++ {
		ps = append(ps, gen.Float64())
	}
	for _, p := range ps {
		c := NewCoin(p)
		words := []uint64{0, 1<<53 - 1, ^uint64(0)}
		for _, k := range []uint64{uint64(c) - 1, uint64(c), uint64(c) + 1} {
			words = append(words, k&(1<<53-1), k&(1<<53-1)|0x5bc<<53)
		}
		for i := 0; i < 100; i++ {
			words = append(words, gen.Uint64())
		}
		for _, x := range words {
			if got, want := c.Flip(x), wordFloat64(x) < p; got != want {
				t.Fatalf("p = %v, word %#x: Flip = %v, Float64() < p = %v", p, x, got, want)
			}
		}
	}
}
