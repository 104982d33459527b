package core

import (
	"strings"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// fixture builds a two-attribute-table dataset where R1 has a high tuple
// ratio (safe) and R2 a low one (not safe).
func fixture(nS, nR1, nR2 int, skewY bool) *dataset.Dataset {
	r := stats.NewRNG(7)
	mk := func(name string, rows int) *relational.Table {
		t := relational.NewTable(name)
		a := make([]int32, rows)
		b := make([]int32, rows)
		for i := 0; i < rows; i++ {
			a[i] = int32(r.IntN(3))
			b[i] = int32(r.IntN(5))
		}
		t.MustAddColumn(&relational.Column{Name: name + "_a", Card: 3, Data: a})
		t.MustAddColumn(&relational.Column{Name: name + "_b", Card: 5, Data: b})
		return t
	}
	r1 := mk("R1", nR1)
	r2 := mk("R2", nR2)
	s := relational.NewTable("S")
	y := make([]int32, nS)
	xs := make([]int32, nS)
	fk1 := make([]int32, nS)
	fk2 := make([]int32, nS)
	for i := 0; i < nS; i++ {
		if skewY {
			if r.Bernoulli(0.95) {
				y[i] = 0
			} else {
				y[i] = 1
			}
		} else {
			y[i] = int32(r.IntN(2))
		}
		xs[i] = int32(r.IntN(4))
		fk1[i] = int32(r.IntN(nR1))
		fk2[i] = int32(r.IntN(nR2))
	}
	s.MustAddColumn(&relational.Column{Name: "Y", Card: 2, Data: y})
	s.MustAddColumn(&relational.Column{Name: "XS", Card: 4, Data: xs})
	s.MustAddColumn(&relational.Column{Name: "FK1", Card: nR1, Data: fk1})
	s.MustAddColumn(&relational.Column{Name: "FK2", Card: nR2, Data: fk2})
	return &dataset.Dataset{
		Name:         "Fixture",
		Entity:       s,
		Target:       "Y",
		HomeFeatures: []string{"XS"},
		Attrs: []dataset.AttributeTable{
			{Table: r1, FK: "FK1", ClosedDomain: true},
			{Table: r2, FK: "FK2", ClosedDomain: true},
		},
	}
}

func TestAdvisorTRSplitsSafeAndUnsafe(t *testing.T) {
	// n_train = 2000; TR1 = 2000/40 = 50 ≥ 20 (avoid), TR2 = 2000/500 = 4 (keep).
	d := fixture(4000, 40, 500, false)
	decs, err := NewAdvisor().Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 {
		t.Fatalf("decisions = %d", len(decs))
	}
	if !decs[0].Considered || !decs[0].Avoid {
		t.Fatalf("R1 should be safe to avoid: %+v", decs[0])
	}
	if !decs[1].Considered || decs[1].Avoid {
		t.Fatalf("R2 should be kept: %+v", decs[1])
	}
	if decs[1].Reason == "" {
		t.Fatal("keep verdict should carry a reason")
	}
}

func TestAdvisorRORRuleAgreesHere(t *testing.T) {
	d := fixture(4000, 40, 500, false)
	a := NewAdvisor()
	a.Rule = RORRule
	decs, err := a.Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Avoid || decs[1].Avoid {
		t.Fatalf("ROR rule disagrees: %+v", decs)
	}
	if decs[0].ROR > DefaultThresholds.Rho || decs[1].ROR <= DefaultThresholds.Rho {
		t.Fatalf("ROR values inconsistent: %v vs %v", decs[0].ROR, decs[1].ROR)
	}
}

func TestAdvisorEntropyGuard(t *testing.T) {
	d := fixture(4000, 40, 500, true) // 95:5 target split → H(Y) < 0.5 bits
	decs, err := NewAdvisor().Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, dec := range decs {
		if dec.Considered || dec.Avoid {
			t.Fatalf("entropy guard should veto all avoidance: %+v", dec)
		}
		if !strings.Contains(dec.Reason, "guard") {
			t.Fatalf("reason should mention the guard: %q", dec.Reason)
		}
	}
	// Ablation switch restores the decisions.
	a := NewAdvisor()
	a.DisableEntropyGuard = true
	decs, err = a.Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Avoid {
		t.Fatal("guard ablation should re-enable avoidance")
	}
}

func TestAdvisorOpenDomainFK(t *testing.T) {
	d := fixture(4000, 40, 500, false)
	d.Attrs[0].ClosedDomain = false
	decs, err := NewAdvisor().Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].Considered || decs[0].Avoid {
		t.Fatalf("open-domain FK must not be considered: %+v", decs[0])
	}
	if !strings.Contains(decs[0].Reason, "closed") {
		t.Fatalf("reason = %q", decs[0].Reason)
	}
}

func TestJoinOptPlan(t *testing.T) {
	d := fixture(4000, 40, 500, false)
	plan, decs, err := NewAdvisor().JoinOptPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 2 {
		t.Fatal("missing decisions")
	}
	// Only FK2's table is joined.
	if len(plan.JoinFKs) != 1 || plan.JoinFKs[0] != "FK2" {
		t.Fatalf("JoinOpt plan = %+v", plan)
	}
	// The plan must materialize: avoided table's features absent, FK present.
	m, err := d.Materialize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureIndex("R1_a") >= 0 {
		t.Fatal("avoided table's features leaked into the design")
	}
	if m.FeatureIndex("FK1") < 0 {
		t.Fatal("FK of avoided table must stay as representative")
	}
	if m.FeatureIndex("R2_a") < 0 {
		t.Fatal("kept table's features missing")
	}
}

func TestAdvisorCustomThresholdsAndFraction(t *testing.T) {
	d := fixture(4000, 150, 500, false)
	// Default: TR1 = 2000/150 ≈ 13.3 < 20 → keep.
	decs, err := NewAdvisor().Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].Avoid {
		t.Fatal("TR 13.3 should not pass τ=20")
	}
	// Relaxed τ=10 admits it (the paper's 0.01-tolerance setting).
	a := NewAdvisor()
	a.Thresholds = RelaxedThresholds
	decs, err = a.Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Avoid {
		t.Fatal("TR 13.3 should pass τ=10")
	}
	// A larger training fraction raises n_train and hence the TR.
	b := NewAdvisor()
	b.TrainFraction = 0.9
	decs, err = b.Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Avoid {
		t.Fatalf("TR %v with 0.9 train fraction should pass τ=20", decs[0].TR)
	}
}

func TestAdvisorValidatesDataset(t *testing.T) {
	d := fixture(100, 10, 20, false)
	d.Target = "Nope"
	if _, err := NewAdvisor().Decide(d); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

func TestAdvisorQRStar(t *testing.T) {
	d := fixture(4000, 40, 500, false)
	decs, err := NewAdvisor().Decide(d)
	if err != nil {
		t.Fatal(err)
	}
	// Attribute tables have features of card 3 and 5: q_R* = 3.
	if decs[0].QRStar != 3 {
		t.Fatalf("qR* = %d, want 3", decs[0].QRStar)
	}
}

func TestRuleString(t *testing.T) {
	if TRRule.String() != "TR" || RORRule.String() != "ROR" {
		t.Fatal("Rule.String broken")
	}
}

func TestParseRule(t *testing.T) {
	for name, want := range map[string]Rule{"TR": TRRule, "tr": TRRule, "ROR": RORRule, "Ror": RORRule} {
		if got, err := ParseRule(name); err != nil || got != want {
			t.Errorf("ParseRule(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseRule("XX")
	if err == nil || err.Error() != `unknown rule "XX" (want TR or ROR)` {
		t.Errorf("ParseRule(XX) error = %v", err)
	}
}

func TestTuneThresholds(t *testing.T) {
	points := []ScatterPoint{
		{ROR: 0.5, TR: 100, DeltaError: 0.0001},
		{ROR: 1.0, TR: 60, DeltaError: 0.0002},
		{ROR: 2.0, TR: 30, DeltaError: 0.0006},
		{ROR: 2.6, TR: 18, DeltaError: 0.0030},
		{ROR: 4.0, TR: 8, DeltaError: 0.0200},
		{ROR: 6.0, TR: 3, DeltaError: 0.0900},
	}
	th, err := TuneThresholds(points, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if th.Rho != 2.0 || th.Tau != 30 {
		t.Fatalf("tuned thresholds = %+v, want ρ=2.0 τ=30", th)
	}
	// Relaxing the tolerance moves both thresholds outward.
	th2, err := TuneThresholds(points, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if th2.Rho <= th.Rho || th2.Tau >= th.Tau {
		t.Fatalf("relaxed thresholds did not widen: %+v vs %+v", th2, th)
	}
}

func TestTuneThresholdsErrors(t *testing.T) {
	if _, err := TuneThresholds(nil, 0.001); err == nil {
		t.Fatal("empty scatter accepted")
	}
	if _, err := TuneThresholds([]ScatterPoint{{ROR: 1, TR: 10, DeltaError: 0}}, 0); err == nil {
		t.Fatal("nonpositive tolerance accepted")
	}
	bad := []ScatterPoint{{ROR: 1, TR: 10, DeltaError: 0.5}}
	if _, err := TuneThresholds(bad, 0.001); err == nil {
		t.Fatal("all-unsafe scatter should not produce thresholds")
	}
}
