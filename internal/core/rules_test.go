package core

import (
	"math"
	"testing"
	"testing/quick"

	"hamlet/internal/stats"
)

func TestRORZeroWhenDomainsEqual(t *testing.T) {
	// q_R* = |D_FK| means the FK has no extra capacity: risk must be 0.
	r, err := ROR(1000, 40, 40, DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("ROR with q_R* = |D_FK| = %v, want 0", r)
	}
}

func TestRORKnownValue(t *testing.T) {
	// Hand-computed: n=1000, dFK=100, qR*=2, δ=0.1.
	// t1 = sqrt(100·ln(2e·10)) = sqrt(100·3.9957) ≈ 19.98924
	// t2 = sqrt(2·ln(2e·500)) = sqrt(2·7.9108) ≈ 3.97763
	// ROR = (t1−t2)/(0.1·sqrt(2000)) ≈ 16.0116/4.47214 ≈ 3.58032
	r, err := ROR(1000, 100, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	t1 := math.Sqrt(100 * math.Log(2*math.E*1000/100))
	t2 := math.Sqrt(2 * math.Log(2*math.E*1000/2))
	want := (t1 - t2) / (0.1 * math.Sqrt(2000))
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("ROR = %v, want %v", r, want)
	}
	if math.Abs(r-3.5803) > 0.001 {
		t.Fatalf("ROR = %v, want ≈3.5803", r)
	}
}

func TestRORMonotoneInDFK(t *testing.T) {
	// Larger FK domains mean more representation risk (n fixed).
	prev := -1.0
	for _, dFK := range []int{4, 8, 16, 32, 64, 128, 256} {
		r, err := ROR(10000, dFK, 2, DefaultDelta)
		if err != nil {
			t.Fatal(err)
		}
		if r < prev {
			t.Fatalf("ROR decreased at dFK=%d: %v < %v", dFK, r, prev)
		}
		prev = r
	}
}

func TestRORMonotoneDecreasingInQRStar(t *testing.T) {
	prev := math.Inf(1)
	for _, q := range []int{2, 4, 8, 16, 32, 64} {
		r, err := ROR(10000, 64, q, DefaultDelta)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev {
			t.Fatalf("ROR increased at qR*=%d: %v > %v", q, r, prev)
		}
		prev = r
	}
}

func TestRORDecreasesWithMoreData(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{200, 500, 1000, 5000, 20000, 100000} {
		r, err := ROR(n, 100, 2, DefaultDelta)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev {
			t.Fatalf("ROR increased with more data at n=%d: %v > %v", n, r, prev)
		}
		prev = r
	}
}

func TestRORPropertyNonnegativeAndOrdered(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		n := 10 + rr.IntN(100000)
		dFK := 2 + rr.IntN(5000)
		q := 1 + rr.IntN(dFK)
		r, err := ROR(n, dFK, q, DefaultDelta)
		if err != nil || r < 0 {
			return false
		}
		// Shrinking q can only increase the risk.
		r2, err := ROR(n, dFK, 1, DefaultDelta)
		return err == nil && r2 >= r-1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRORValidation(t *testing.T) {
	cases := []struct {
		n, dFK, q int
		delta     float64
	}{
		{0, 10, 2, 0.1},
		{100, 0, 2, 0.1},
		{100, 10, 0, 0.1},
		{100, 10, 11, 0.1}, // qR* > |D_FK| impossible
		{100, 10, 2, 0},
		{100, 10, 2, 1},
	}
	for _, c := range cases {
		if _, err := ROR(c.n, c.dFK, c.q, c.delta); err == nil {
			t.Errorf("ROR(%+v) accepted invalid input", c)
		}
	}
}

func TestTupleRatio(t *testing.T) {
	tr, err := TupleRatio(210785, 2340)
	if err != nil {
		t.Fatal(err)
	}
	// Walmart's Indicators table: TR ≈ 90 (paper Figure 6 with 50% train).
	if math.Abs(tr-90.08) > 0.1 {
		t.Fatalf("Walmart TR = %v, want ≈90", tr)
	}
	if _, err := TupleRatio(0, 5); err == nil {
		t.Fatal("zero train count accepted")
	}
	if _, err := TupleRatio(5, 0); err == nil {
		t.Fatal("zero attribute rows accepted")
	}
}

// decideOne runs the advisor's rule over a one-table DatasetStats: nTrain
// training rows (TrainFraction 1), an nR-row closed-domain attribute table
// whose smallest feature domain is qRStar, and a one-bit target entropy that
// clears the Appendix D guard.
func decideOne(t *testing.T, rule Rule, th Thresholds, nTrain, nR, qRStar int) Decision {
	t.Helper()
	adv := &Advisor{Rule: rule, Thresholds: th, TrainFraction: 1}
	decs, err := adv.DecideFromStats(&DatasetStats{
		Name:          "one-table",
		NumRows:       nTrain,
		TargetEntropy: 1,
		Attrs:         []AttrStats{{FK: "FK", Attr: "R", NR: nR, QRStar: qRStar, ClosedDomain: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return decs[0]
}

// TestPaperTupleRatios checks the TR rule against every closed-domain FK of
// the paper's Figure 6 datasets (n_train = 0.5·n_S, τ = 20) and verifies it
// reproduces the avoid/keep split reported in §5.
func TestPaperTupleRatios(t *testing.T) {
	cases := []struct {
		dataset string
		nS, nR  int
		avoid   bool
	}{
		{"Walmart/Indicators", 421570, 2340, true},
		{"Walmart/Stores", 421570, 45, true},
		{"Expedia/Hotels", 942142, 11939, true},
		{"Flights/Airlines", 66548, 540, true},
		{"Flights/SrcAirports", 66548, 3182, false},
		{"Flights/DestAirports", 66548, 3182, false},
		{"Yelp/Businesses", 215879, 11537, false},
		{"Yelp/Users", 215879, 43873, false},
		{"MovieLens1M/Movies", 1000209, 3706, true},
		{"MovieLens1M/Users", 1000209, 6040, true},
		{"LastFM/Artists", 343747, 4999, true},
		{"LastFM/Users", 343747, 50000, false},
		{"BookCrossing/Users", 253120, 49972, false},
		{"BookCrossing/Books", 253120, 27876, false},
	}
	for _, c := range cases {
		nTrain := c.nS / 2
		dec := decideOne(t, TRRule, DefaultThresholds, nTrain, c.nR, 2)
		if dec.Avoid != c.avoid {
			t.Errorf("%s: TR=%.1f predicted avoid=%v, paper says %v", c.dataset, dec.TR, dec.Avoid, c.avoid)
		}
	}
}

// TestRelaxedThresholdAdmitsFlights checks §5.2.2: with tolerance 0.01
// (τ = 10), the two Flights airport joins flip to avoidable.
func TestRelaxedThresholdAdmitsFlights(t *testing.T) {
	nTrain := 66548 / 2
	if dec := decideOne(t, TRRule, RelaxedThresholds, nTrain, 3182, 2); !dec.Avoid {
		t.Fatalf("Flights airports TR=%.2f should be avoidable at τ=10", dec.TR)
	}
	if dec := decideOne(t, TRRule, DefaultThresholds, nTrain, 3182, 2); dec.Avoid {
		t.Fatal("Flights airports must not be avoidable at τ=20")
	}
}

// TestRORRuleAvoidsOnlyLowRisk: the ROR rule avoids a join whose worst-case
// risk is at most ρ and keeps one whose risk exceeds it.
func TestRORRuleAvoidsOnlyLowRisk(t *testing.T) {
	// Small risk: huge n, small FK domain.
	dec := decideOne(t, RORRule, DefaultThresholds, 100000, 50, 2)
	if !dec.Avoid || dec.ROR > DefaultThresholds.Rho {
		t.Fatalf("low-risk case not avoidable: ROR=%v", dec.ROR)
	}
	// High risk: small n, large FK domain.
	if dec = decideOne(t, RORRule, DefaultThresholds, 1000, 900, 2); dec.Avoid {
		t.Fatalf("high-risk case avoidable: ROR=%v", dec.ROR)
	}
}

// TestRORLinearInInverseSqrtTR verifies the paper's Figure 4(C) relationship
// on a parameter sweep: Pearson correlation between ROR and 1/√TR ≥ 0.9.
func TestRORLinearInInverseSqrtTR(t *testing.T) {
	var rors, invSqrtTR []float64
	for _, n := range []int{500, 1000, 2000, 4000, 8000} {
		for _, nR := range []int{10, 20, 40, 80, 160, 320} {
			if nR*2 >= n {
				continue
			}
			r, err := ROR(n, nR, 2, DefaultDelta)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := TupleRatio(n, nR)
			rors = append(rors, r)
			invSqrtTR = append(invSqrtTR, 1/math.Sqrt(tr))
		}
	}
	if corr := stats.Pearson(rors, invSqrtTR); corr < 0.9 {
		t.Fatalf("Pearson(ROR, 1/sqrt(TR)) = %v, want ≥ 0.9 (paper reports ≈0.97)", corr)
	}
}

func TestVCTermDegenerate(t *testing.T) {
	if v := vcTerm(0, 100); v != 0 {
		t.Fatalf("vcTerm(0, ·) = %v", v)
	}
	if v := vcTerm(1000, 1); v != 0 {
		t.Fatalf("vcTerm in clamped region = %v, want 0", v)
	}
}
