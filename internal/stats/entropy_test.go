package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEntropyCountsUniform(t *testing.T) {
	// Uniform over 4 categories: exactly 2 bits.
	h := EntropyCounts([]int{5, 5, 5, 5})
	if !approxEq(h, 2, 1e-12) {
		t.Fatalf("uniform 4-way entropy = %v, want 2", h)
	}
}

func TestEntropyCountsDegenerate(t *testing.T) {
	if h := EntropyCounts([]int{10, 0, 0}); h != 0 {
		t.Fatalf("point-mass entropy = %v, want 0", h)
	}
	if h := EntropyCounts(nil); h != 0 {
		t.Fatalf("empty entropy = %v, want 0", h)
	}
	if h := EntropyCounts([]int{0, 0}); h != 0 {
		t.Fatalf("all-zero entropy = %v, want 0", h)
	}
}

func TestEntropyCountsBiased(t *testing.T) {
	// 90:10 split: H = -(0.9 log2 0.9 + 0.1 log2 0.1) ≈ 0.468996 bits.
	h := EntropyCounts([]int{90, 10})
	if !approxEq(h, 0.46899559358928133, 1e-12) {
		t.Fatalf("90:10 entropy = %v", h)
	}
	// The paper's Appendix D guard treats H(Y) < 0.5 as "roughly a 90:10
	// split"; sanity-check that boundary.
	if h >= 0.5 {
		t.Fatalf("90:10 entropy %v should be below the 0.5-bit guard", h)
	}
}

func TestEntropyCodesIgnoresOutOfRange(t *testing.T) {
	codes := []int32{0, 1, 0, 1, -1, 7}
	h := Entropy(codes, 2)
	if !approxEq(h, 1, 1e-12) {
		t.Fatalf("entropy with out-of-range codes = %v, want 1", h)
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// Perfectly independent A and B: MI must be 0.
	var a, b []int32
	for i := 0; i < 400; i++ {
		a = append(a, int32(i%2))
		b = append(b, int32((i/2)%2))
	}
	mi := MutualInformation(a, 2, b, 2)
	if !approxEq(mi, 0, 1e-12) {
		t.Fatalf("independent MI = %v, want 0", mi)
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	// A = B uniform binary: I(A;B) = H(A) = 1 bit.
	var a []int32
	for i := 0; i < 100; i++ {
		a = append(a, int32(i%2))
	}
	mi := MutualInformation(a, 2, a, 2)
	if !approxEq(mi, 1, 1e-12) {
		t.Fatalf("I(A;A) = %v, want 1", mi)
	}
}

func TestMutualInformationSymmetric(t *testing.T) {
	r := NewRNG(7)
	a := make([]int32, 500)
	b := make([]int32, 500)
	for i := range a {
		a[i] = int32(r.IntN(4))
		b[i] = int32((int(a[i]) + r.IntN(3)) % 5)
	}
	ab := MutualInformation(a, 4, b, 5)
	ba := MutualInformation(b, 5, a, 4)
	if !approxEq(ab, ba, 1e-12) {
		t.Fatalf("MI not symmetric: %v vs %v", ab, ba)
	}
}

func TestMutualInformationBounds(t *testing.T) {
	r := NewRNG(11)
	a := make([]int32, 300)
	b := make([]int32, 300)
	for i := range a {
		a[i] = int32(r.IntN(3))
		b[i] = int32(r.IntN(6))
	}
	mi := MutualInformation(a, 3, b, 6)
	ha, hb := Entropy(a, 3), Entropy(b, 6)
	if mi < 0 || mi > ha+1e-12 || mi > hb+1e-12 {
		t.Fatalf("MI %v violates bounds [0, min(%v, %v)]", mi, ha, hb)
	}
}

func TestInformationGainRatioConstantFeature(t *testing.T) {
	f := make([]int32, 50) // all zeros
	y := make([]int32, 50)
	for i := range y {
		y[i] = int32(i % 2)
	}
	if igr := InformationGainRatio(f, 1, y, 2); igr != 0 {
		t.Fatalf("IGR of constant feature = %v, want 0", igr)
	}
}

func TestInformationGainRatioUpperBound(t *testing.T) {
	r := NewRNG(17)
	f := make([]int32, 500)
	y := make([]int32, 500)
	for i := range f {
		f[i] = int32(r.IntN(5))
		y[i] = int32((int(f[i]) + r.IntN(2)) % 3)
	}
	igr := InformationGainRatio(f, 5, y, 3)
	if igr < 0 || igr > 1+1e-12 {
		t.Fatalf("IGR = %v outside [0,1]", igr)
	}
}

// TestTheorem31LogSum is the property-based test for the paper's Theorem 3.1:
// when F is functionally determined by FK (the FD FK → X_R that a KFK join
// materializes), I(F;Y) ≤ I(FK;Y) for every instance. We generate random
// FK→F mappings and random (FK, Y) data and verify the inequality.
func TestTheorem31LogSum(t *testing.T) {
	r := NewRNG(23)
	prop := func(seed uint64) bool {
		rr := NewRNG(seed)
		dFK := 2 + rr.IntN(20)
		dF := 1 + rr.IntN(6)
		dY := 2 + rr.IntN(3)
		n := 50 + rr.IntN(400)
		// FD mapping fk -> f value.
		fd := make([]int32, dFK)
		for i := range fd {
			fd[i] = int32(rr.IntN(dF))
		}
		fk := make([]int32, n)
		f := make([]int32, n)
		y := make([]int32, n)
		for i := 0; i < n; i++ {
			fk[i] = int32(rr.IntN(dFK))
			f[i] = fd[fk[i]]
			y[i] = int32(rr.IntN(dY))
			// Correlate Y with FK sometimes so MI is nontrivial.
			if rr.Bernoulli(0.5) {
				y[i] = int32(int(fk[i]) % dY)
			}
		}
		iF := MutualInformation(f, dF, y, dY)
		iFK := MutualInformation(fk, dFK, y, dY)
		return iF <= iFK+1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	if err := quick.Check(func(s uint64) bool { _ = r; return prop(s) }, cfg); err != nil {
		t.Fatalf("Theorem 3.1 property violated: %v", err)
	}
}

// TestProposition32IGRCounterexample verifies Proposition 3.2: IGR can prefer
// a foreign feature over the FK. This is the concrete counterexample the
// paper says is trivial to construct: Y perfectly determined by F (so the MI
// terms are equal) but FK has a much larger domain, hence larger entropy and
// a smaller ratio.
func TestProposition32IGRCounterexample(t *testing.T) {
	// 8 FK values map pairwise onto 2 F values; Y == F.
	const n = 800
	fk := make([]int32, n)
	f := make([]int32, n)
	y := make([]int32, n)
	for i := 0; i < n; i++ {
		fk[i] = int32(i % 8)
		f[i] = fk[i] % 2
		y[i] = f[i]
	}
	igrF := InformationGainRatio(f, 2, y, 2)
	igrFK := InformationGainRatio(fk, 8, y, 2)
	if igrF <= igrFK {
		t.Fatalf("expected IGR(F;Y)=%v > IGR(FK;Y)=%v", igrF, igrFK)
	}
	// While the MI ordering of Theorem 3.1 still holds.
	if MutualInformation(f, 2, y, 2) > MutualInformation(fk, 8, y, 2)+1e-12 {
		t.Fatal("Theorem 3.1 violated in the counterexample instance")
	}
}

func TestConditionalMutualInformationMatchesUnconditional(t *testing.T) {
	// With a constant conditioning variable, I(A;B|C) == I(A;B).
	r := NewRNG(29)
	n := 300
	a := make([]int32, n)
	b := make([]int32, n)
	c := make([]int32, n) // constant zero
	for i := range a {
		a[i] = int32(r.IntN(3))
		b[i] = int32((int(a[i]) + r.IntN(2)) % 3)
	}
	got := ConditionalMutualInformation(a, 3, b, 3, c, 1)
	want := MutualInformation(a, 3, b, 3)
	if !approxEq(got, want, 1e-9) {
		t.Fatalf("CMI with constant C = %v, want %v", got, want)
	}
}

func TestConditionalMutualInformationNonnegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rr := NewRNG(seed)
		n := 100 + rr.IntN(200)
		a := make([]int32, n)
		b := make([]int32, n)
		c := make([]int32, n)
		for i := 0; i < n; i++ {
			a[i] = int32(rr.IntN(3))
			b[i] = int32(rr.IntN(4))
			c[i] = int32(rr.IntN(2))
		}
		return ConditionalMutualInformation(a, 3, b, 4, c, 2) >= -1e-12
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatalf("CMI nonnegativity violated: %v", err)
	}
}

func TestJointCountsShape(t *testing.T) {
	a := []int32{0, 1, 1, 2}
	b := []int32{1, 0, 1, 1}
	j := JointCounts(a, 3, b, 2)
	want := []int{0, 1, 1, 1, 0, 1}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("joint[%d] = %d, want %d (full %v)", i, j[i], want[i], j)
		}
	}
}

func TestMutualInformationCountsEmptyAndInvalid(t *testing.T) {
	if mi := MutualInformationCounts(nil, 2, 2); mi != 0 {
		t.Fatalf("MI of short table = %v, want 0", mi)
	}
	if mi := MutualInformationCounts([]int{0, 0, 0, 0}, 2, 2); mi != 0 {
		t.Fatalf("MI of zero table = %v, want 0", mi)
	}
	if mi := MutualInformationCounts([]int{1}, 0, 3); mi != 0 {
		t.Fatalf("MI with zero cardinality = %v, want 0", mi)
	}
}
