package hamlet

import (
	"strings"
	"testing"
)

// exampleDataset builds a small normalized dataset with one safe-to-avoid
// attribute table (high TR, FK-level concept) and plenty of rows.
func exampleDataset(t *testing.T) *Dataset {
	t.Helper()
	spec, err := MimicByName("Walmart")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicRelationalAPI(t *testing.T) {
	r := NewTable("Employers")
	r.MustAddColumn(&Column{Name: "Country", Card: 3, Data: []int32{0, 1, 2}})
	s := NewTable("Customers")
	s.MustAddColumn(&Column{Name: "Churn", Card: 2, Data: []int32{0, 1}})
	s.MustAddColumn(&Column{Name: "EmployerID", Card: 3, Data: []int32{2, 0}})
	joined, err := Join(s, "EmployerID", r)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Column("Country").Data[0] != 2 {
		t.Fatal("public Join broken")
	}
}

func TestPublicRules(t *testing.T) {
	ror, err := ROR(1000, 100, 2, DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	if ror <= 0 {
		t.Fatal("ROR should be positive here")
	}
	tr, err := TupleRatio(1000, 50)
	if err != nil || tr != 20 {
		t.Fatalf("TupleRatio = %v (%v)", tr, err)
	}
	th, err := TuneThresholds([]ScatterPoint{
		{ROR: 1, TR: 50, DeltaError: 0},
		{ROR: 3, TR: 5, DeltaError: 0.05},
	}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if th.Rho != 1 || th.Tau != 50 {
		t.Fatalf("tuned = %+v", th)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	d := exampleDataset(t)
	rep, err := Analyze(d, ForwardSelection(), nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dataset != "Walmart" || rep.Metric != "RMSE" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Decisions) != 2 {
		t.Fatalf("decisions = %d", len(rep.Decisions))
	}
	for _, dec := range rep.Decisions {
		if !dec.Avoid {
			t.Fatalf("Walmart joins should be avoided: %+v", dec)
		}
	}
	// JoinOpt must use fewer candidate features and not blow up the error.
	if rep.JoinOpt.InputFeatures >= rep.JoinAll.InputFeatures {
		t.Fatal("JoinOpt should shrink the input")
	}
	if rep.JoinOpt.TestError-rep.JoinAll.TestError > 0.08 {
		t.Fatalf("JoinOpt error blew up: %v vs %v", rep.JoinOpt.TestError, rep.JoinAll.TestError)
	}
	if rep.JoinAll.Evaluations <= rep.JoinOpt.Evaluations {
		t.Log("note: JoinAll did not need more evaluations on this seed")
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, ForwardSelection(), nil, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	d := exampleDataset(t)
	if _, err := Analyze(d, nil, nil, 1); err == nil {
		t.Fatal("nil method accepted")
	}
}

// TestEvaluatePlanValidation: EvaluatePlan refuses a nil dataset and a nil
// method with Analyze's errors, not a nil-pointer panic.
func TestEvaluatePlanValidation(t *testing.T) {
	d := exampleDataset(t)
	for _, tc := range []struct {
		name   string
		d      *Dataset
		method FeatureSelector
	}{
		{"nil dataset", nil, MIFilter()},
		{"nil method", d, nil},
	} {
		_, want := Analyze(tc.d, tc.method, nil, 7)
		_, err := EvaluatePlan(tc.d, d.NoJoinsPlan(), tc.method, 7)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: EvaluatePlan error %v, Analyze error %v", tc.name, err, want)
		}
	}
}

func TestEvaluatePlanPublic(t *testing.T) {
	d := exampleDataset(t)
	out, err := EvaluatePlan(d, d.NoJoinsPlan(), MIFilter(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.InputFeatures != 3 { // Dept + 2 FKs
		t.Fatalf("NoJoins input features = %d", out.InputFeatures)
	}
	if out.TestError <= 0 {
		t.Fatalf("test error = %v", out.TestError)
	}
}

// TestEvaluatePlanRejectsDanglingFK: a corrupt joined FK must surface as an
// error from the public pipeline, not as an index panic in the gather.
func TestEvaluatePlanRejectsDanglingFK(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(fk *Column, nR int)
		want   string
	}{
		{"RID >= n_R", func(fk *Column, nR int) { fk.Data[3] = int32(nR) }, "dangles"},
		{"negative RID", func(fk *Column, nR int) { fk.Data[0] = -1 }, "dangles"},
		{"cardinality != n_R", func(fk *Column, nR int) { fk.Card = nR + 1 }, "cardinality"},
	}
	for _, tc := range cases {
		d := exampleDataset(t)
		at := d.Attrs[0]
		tc.mutate(d.Entity.Column(at.FK), at.Table.NumRows())
		_, err := EvaluatePlan(d, d.JoinAllPlan(), MIFilter(), 7)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: EvaluatePlan error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPublicLearners(t *testing.T) {
	names := map[string]Learner{
		"naive-bayes": NaiveBayes(),
		"logreg-L1":   LogisticRegressionL1(),
		"logreg-L2":   LogisticRegressionL2(),
		"tan":         TAN(),
	}
	for want, l := range names {
		if l.Name() != want {
			t.Errorf("learner name = %q, want %q", l.Name(), want)
		}
	}
	sels := []FeatureSelector{ForwardSelection(), BackwardSelection(), MIFilter(), IGRFilter(), EmbeddedL1(), EmbeddedL2()}
	seen := map[string]bool{}
	for _, s := range sels {
		if seen[s.Name()] {
			t.Errorf("duplicate selector name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestPublicSimulationAPI(t *testing.T) {
	w, err := NewWorld(SimConfig{Scenario: ScenarioOneXr, DS: 2, DR: 2, NR: 20, P: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := BiasVariance(w.Cfg, BiasVarConfig{NTrain: 200, NTest: 100, L: 4, Worlds: 2, Seed: 1, Learner: NaiveBayes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["NoJoin"]; !ok {
		t.Fatal("missing NoJoin decomposition")
	}
}

func TestPublicStatsAPI(t *testing.T) {
	y := []int32{0, 1, 0, 1}
	if Entropy(y, 2) != 1 {
		t.Fatal("Entropy re-export broken")
	}
	if MutualInformation(y, 2, y, 2) != 1 {
		t.Fatal("MutualInformation re-export broken")
	}
	if InformationGainRatio(y, 2, y, 2) != 1 {
		t.Fatal("InformationGainRatio re-export broken")
	}
}

func TestMimicsPublic(t *testing.T) {
	if len(Mimics()) != 7 {
		t.Fatal("Mimics re-export broken")
	}
	if _, err := MimicByName("Yelp"); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSplitPublic(t *testing.T) {
	s, err := DefaultSplit(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Train) != 50 {
		t.Fatal("DefaultSplit broken")
	}
}
