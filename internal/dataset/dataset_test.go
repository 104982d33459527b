package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// churn builds the paper's running example dataset:
// Customers(Churn, Age, Gender, EmployerID) ⋈ Employers(Country, Revenue).
func churn() *Dataset {
	employers := relational.NewTable("Employers")
	employers.MustAddColumn(&relational.Column{Name: "Country", Card: 3, Data: []int32{0, 1, 2, 0}})
	employers.MustAddColumn(&relational.Column{Name: "Revenue", Card: 2, Data: []int32{1, 0, 1, 1}})
	customers := relational.NewTable("Customers")
	customers.MustAddColumn(&relational.Column{Name: "Churn", Card: 2, Data: []int32{0, 1, 1, 0, 1, 0, 1, 0}})
	customers.MustAddColumn(&relational.Column{Name: "Age", Card: 4, Data: []int32{0, 1, 2, 3, 1, 2, 0, 3}})
	customers.MustAddColumn(&relational.Column{Name: "Gender", Card: 2, Data: []int32{0, 1, 0, 1, 0, 1, 0, 1}})
	customers.MustAddColumn(&relational.Column{Name: "EmployerID", Card: 4, Data: []int32{0, 1, 2, 3, 1, 0, 2, 3}})
	return &Dataset{
		Name:         "Churn",
		Entity:       customers,
		Target:       "Churn",
		HomeFeatures: []string{"Age", "Gender"},
		Attrs: []AttributeTable{
			{Table: employers, FK: "EmployerID", ClosedDomain: true},
		},
	}
}

func TestValidateGood(t *testing.T) {
	if err := churn().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"nil entity", func(d *Dataset) { d.Entity = nil }},
		{"missing target", func(d *Dataset) { d.Target = "Nope" }},
		{"missing home feature", func(d *Dataset) { d.HomeFeatures = []string{"Nope"} }},
		{"target as feature", func(d *Dataset) { d.HomeFeatures = []string{"Churn"} }},
		{"missing FK", func(d *Dataset) { d.Attrs[0].FK = "Nope" }},
		{"nil attribute table", func(d *Dataset) { d.Attrs[0].Table = nil }},
		{"dangling FK", func(d *Dataset) { d.Entity.Column("EmployerID").Data[0] = 9 }},
	}
	for _, tc := range cases {
		d := churn()
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken dataset", tc.name)
		}
	}
}

func TestBasicAccessors(t *testing.T) {
	d := churn()
	if d.NumClasses() != 2 {
		t.Fatalf("classes = %d", d.NumClasses())
	}
	if d.NumRows() != 8 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	if d.AttrByFK("EmployerID") == nil || d.AttrByFK("Nope") != nil {
		t.Fatal("AttrByFK broken")
	}
}

func TestJoinAllPlanMaterialize(t *testing.T) {
	d := churn()
	m, err := d.Materialize(d.JoinAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	// Age, Gender, EmployerID(FK), Country, Revenue.
	want := []string{"Age", "Gender", "EmployerID", "Country", "Revenue"}
	got := m.FeatureNames()
	if len(got) != len(want) {
		t.Fatalf("features = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feature[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Row 4: EmployerID 1 → Country 1, Revenue 0.
	if m.Features[3].Data[4] != 1 || m.Features[4].Data[4] != 0 {
		t.Fatal("foreign features gathered incorrectly")
	}
	if !m.Features[2].IsFK || m.Features[2].Source != "S" || m.Features[3].Source != "Employers" {
		t.Fatal("provenance wrong")
	}
	if m.NumClasses != 2 || m.NumRows() != 8 {
		t.Fatal("design shape wrong")
	}
}

func TestNoJoinsPlan(t *testing.T) {
	d := churn()
	m, err := d.Materialize(d.NoJoinsPlan())
	if err != nil {
		t.Fatal(err)
	}
	got := m.FeatureNames()
	want := []string{"Age", "Gender", "EmployerID"}
	if len(got) != len(want) {
		t.Fatalf("NoJoins features = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feature[%d] = %q", i, got[i])
		}
	}
}

func TestJoinAllNoFKPlan(t *testing.T) {
	d := churn()
	m, err := d.Materialize(d.JoinAllNoFKPlan())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Features {
		if f.IsFK {
			t.Fatal("JoinAllNoFK must drop FK features")
		}
	}
	if m.FeatureIndex("Country") < 0 || m.FeatureIndex("Revenue") < 0 {
		t.Fatal("JoinAllNoFK must still join foreign features")
	}
}

func TestOpenDomainFKAlwaysJoinedNeverFeature(t *testing.T) {
	d := churn()
	d.Attrs[0].ClosedDomain = false
	// NoJoins must still join the open-domain table.
	m, err := d.Materialize(d.NoJoinsPlan())
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureIndex("Country") < 0 {
		t.Fatal("open-domain attribute table must be joined under NoJoins")
	}
	if m.FeatureIndex("EmployerID") >= 0 {
		t.Fatal("open-domain FK must never be a feature")
	}
}

func TestMaterializeUnknownFKs(t *testing.T) {
	d := churn()
	if _, err := d.Materialize(Plan{JoinFKs: []string{"Nope"}}); err == nil {
		t.Fatal("unknown join FK accepted")
	}
	if _, err := d.Materialize(Plan{DropFKs: []string{"Nope"}}); err == nil {
		t.Fatal("unknown drop FK accepted")
	}
}

// materializeViaJoin is the test oracle for Materialize: it builds the same
// design matrix through the generic relational.JoinAll operator instead of
// the fused gather. Feature order matches Materialize.
func materializeViaJoin(d *Dataset, p Plan) (*Design, error) {
	var fks []relational.ForeignKey
	attrs := make(map[string]*relational.Table)
	for _, at := range d.Attrs {
		if contains(p.JoinFKs, at.FK) {
			fks = append(fks, relational.ForeignKey{Column: at.FK, Refs: at.Table.Name, ClosedDomain: at.ClosedDomain})
			attrs[at.Table.Name] = at.Table
		}
	}
	joined, err := relational.JoinAll(d.Entity, fks, attrs)
	if err != nil {
		return nil, err
	}
	y := joined.Column(d.Target)
	out := &Design{NumClasses: y.Card, Y: y.Data}
	appendCol := func(name, source string, isFK bool) error {
		c := joined.Column(name)
		if c == nil {
			return fmt.Errorf("dataset %q: column %q missing after join", d.Name, name)
		}
		out.Features = append(out.Features, Feature{Name: c.Name, Card: c.Card, Data: c.Data, Source: source, IsFK: isFK})
		return nil
	}
	for _, name := range d.HomeFeatures {
		if err := appendCol(name, "S", false); err != nil {
			return nil, err
		}
	}
	for _, at := range d.Attrs {
		if at.ClosedDomain && !contains(p.DropFKs, at.FK) {
			if err := appendCol(at.FK, "S", true); err != nil {
				return nil, err
			}
		}
	}
	for _, at := range d.Attrs {
		if !contains(p.JoinFKs, at.FK) {
			continue
		}
		for _, rc := range at.Table.Columns() {
			if err := appendCol(rc.Name, at.Table.Name, false); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// randDataset builds a random normalized dataset: an entity table (possibly
// empty) with a target, a few home features, and 0–2 attribute tables
// behind FKs with random closed/open domains.
func randDataset(rng *rand.Rand) *Dataset {
	nS := rng.Intn(120)
	entity := relational.NewTable("S")
	yCard := 2 + rng.Intn(3)
	yData := make([]int32, nS)
	for i := range yData {
		yData[i] = int32(rng.Intn(yCard))
	}
	entity.MustAddColumn(&relational.Column{Name: "Y", Card: yCard, Data: yData})
	var home []string
	for h := 0; h < 1+rng.Intn(3); h++ {
		card := 1 + rng.Intn(6)
		data := make([]int32, nS)
		for i := range data {
			data[i] = int32(rng.Intn(card))
		}
		name := "H" + string(rune('a'+h))
		entity.MustAddColumn(&relational.Column{Name: name, Card: card, Data: data})
		home = append(home, name)
	}
	d := &Dataset{Name: "Rand", Entity: entity, Target: "Y", HomeFeatures: home}
	for a := 0; a < rng.Intn(3); a++ {
		nR := 1 + rng.Intn(25)
		attr := relational.NewTable("R" + string(rune('0'+a)))
		for j := 0; j < 1+rng.Intn(3); j++ {
			card := 1 + rng.Intn(8)
			data := make([]int32, nR)
			for i := range data {
				data[i] = int32(rng.Intn(card))
			}
			attr.MustAddColumn(&relational.Column{Name: "F" + string(rune('0'+a)) + string(rune('a'+j)), Card: card, Data: data})
		}
		fk := make([]int32, nS)
		for i := range fk {
			fk[i] = int32(rng.Intn(nR))
		}
		fkName := "FK" + string(rune('0'+a))
		entity.MustAddColumn(&relational.Column{Name: fkName, Card: nR, Data: fk})
		d.Attrs = append(d.Attrs, AttributeTable{Table: attr, FK: fkName, ClosedDomain: rng.Intn(3) > 0})
	}
	return d
}

// randPlan picks a random valid plan over d's FKs.
func randPlan(rng *rand.Rand, d *Dataset) Plan {
	var p Plan
	for _, at := range d.Attrs {
		if !at.ClosedDomain || rng.Intn(2) == 0 {
			p.JoinFKs = append(p.JoinFKs, at.FK)
		}
		if at.ClosedDomain && rng.Intn(3) == 0 {
			p.DropFKs = append(p.DropFKs, at.FK)
		}
	}
	return p
}

// designsEqual compares metadata and every cell of two designs.
func designsEqual(t *testing.T, want, got *Design) {
	t.Helper()
	if got.NumClasses != want.NumClasses || got.NumFeatures() != want.NumFeatures() || got.NumRows() != want.NumRows() {
		t.Fatalf("shape: got (%d classes, %d feats, %d rows), want (%d, %d, %d)",
			got.NumClasses, got.NumFeatures(), got.NumRows(), want.NumClasses, want.NumFeatures(), want.NumRows())
	}
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("Y[%d]: got %d, want %d", i, got.Y[i], want.Y[i])
		}
	}
	for f := range want.Features {
		wf, gf := &want.Features[f], &got.Features[f]
		if gf.Name != wf.Name || gf.Card != wf.Card || gf.Source != wf.Source || gf.IsFK != wf.IsFK {
			t.Fatalf("feature %d metadata: got %+v, want %+v", f,
				Feature{Name: gf.Name, Card: gf.Card, Source: gf.Source, IsFK: gf.IsFK},
				Feature{Name: wf.Name, Card: wf.Card, Source: wf.Source, IsFK: wf.IsFK})
		}
		for i := range wf.Data {
			if gf.Data[i] != wf.Data[i] {
				t.Fatalf("feature %q row %d: got %d, want %d", wf.Name, i, gf.Data[i], wf.Data[i])
			}
		}
	}
}

// TestMaterializeMatchesMaterializeVia is the design-level equivalence
// property: the fused gather in Materialize reproduces the generic join
// oracle bit for bit (feature order, metadata, labels and cells) on the
// named plans of the running example and on random datasets and plans.
func TestMaterializeMatchesMaterializeVia(t *testing.T) {
	check := func(d *Dataset, p Plan) {
		t.Helper()
		want, err := materializeViaJoin(d, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		designsEqual(t, want, got)
	}
	d := churn()
	for _, p := range []Plan{d.JoinAllPlan(), d.NoJoinsPlan(), d.JoinAllNoFKPlan()} {
		check(d, p)
	}

	// The generator must keep reaching the edge cases this property is
	// meant to cover; a generator edit that loses one fails here.
	var noAttrs, twoAttrs, openDomain, dropped, emptyEntity bool
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := randDataset(rng)
		p := randPlan(rng, d)
		noAttrs = noAttrs || len(d.Attrs) == 0
		twoAttrs = twoAttrs || len(d.Attrs) == 2
		emptyEntity = emptyEntity || d.NumRows() == 0
		dropped = dropped || len(p.DropFKs) > 0
		for _, at := range d.Attrs {
			openDomain = openDomain || !at.ClosedDomain
		}
		check(d, p)
	}
	if !noAttrs || !twoAttrs || !openDomain || !dropped || !emptyEntity {
		t.Fatalf("generator missed an edge case: noAttrs=%v twoAttrs=%v openDomain=%v dropFKs=%v emptyEntity=%v",
			noAttrs, twoAttrs, openDomain, dropped, emptyEntity)
	}
}

// TestMaterializeRejectsDanglingFK pins referential integrity on the gather
// path: a joined FK whose RID falls outside [0, n_R), or whose declared
// cardinality is not n_R, is an error naming the dataset (as it is for the
// join oracle), never an index panic.
func TestMaterializeRejectsDanglingFK(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(fk *relational.Column)
		want   string
	}{
		{"RID >= n_R", func(fk *relational.Column) { fk.Data[5] = 4 }, "dangles"},
		{"negative RID", func(fk *relational.Column) { fk.Data[0] = -1 }, "dangles"},
		{"cardinality != n_R", func(fk *relational.Column) { fk.Card = 5 }, "cardinality"},
	}
	for _, tc := range cases {
		d := churn()
		tc.mutate(d.Entity.Column("EmployerID"))
		_, err := d.Materialize(d.JoinAllPlan())
		if err == nil {
			t.Fatalf("%s: Materialize accepted a dangling FK", tc.name)
		}
		if !strings.Contains(err.Error(), `dataset "Churn"`) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the dataset and %q", tc.name, err, tc.want)
		}
		if _, err := materializeViaJoin(d, d.JoinAllPlan()); err == nil {
			t.Errorf("%s: the join oracle accepted the same input", tc.name)
		}
		split, serr := DefaultSplit(d.NumRows(), stats.NewRNG(1))
		if serr != nil {
			t.Fatal(serr)
		}
		if _, _, _, serr := d.MaterializeSplit(d.JoinAllPlan(), split); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: MaterializeSplit error %v, Materialize error %v", tc.name, serr, err)
		}
	}
}

// TestMaterializeSplitMatchesApply pins the one-gather path to the two-step
// one it replaces. On the running example and on random datasets and
// splits, one gather of JoinAll serves every plan: Designs(q) returns
// Materialize(q) then Split.Apply's three designs cell for cell and in
// metadata, every view capped, for JoinAll, NoJoins, JoinAllNoFK and a
// random plan. The gather counts as the one materialization Materialize
// counts and its views count none; MaterializeSplit, the shorthand for
// gathering and viewing one plan, agrees cell for cell and moves every
// counter by exactly what Materialize of its plan moves it. Designs
// refuses, with Materialize's error where Materialize fails, an unknown
// FK, a dangling joined FK and a plan whose columns the gather does not
// hold.
func TestMaterializeSplitMatchesApply(t *testing.T) {
	counters := func() [3]int64 {
		return [3]int64{materializeCount.Value(), materializeRows.Value(), materializeCells.Value()}
	}
	check := func(d *Dataset, p Plan, split *Split) {
		t.Helper()
		before := counters()
		all, err := d.Materialize(d.JoinAllPlan())
		if err != nil {
			t.Fatal(err)
		}
		mid := counters()
		g, err := d.GatherSplit(d.JoinAllPlan(), split)
		if err != nil {
			t.Fatal(err)
		}
		if after := counters(); after[0]-mid[0] != 1 || after[1]-mid[1] != mid[1]-before[1] || after[2]-mid[2] != mid[2]-before[2] {
			t.Fatalf("the gather moved the counters by %v, Materialize by %v", []int64{after[0] - mid[0], after[1] - mid[1], after[2] - mid[2]}, []int64{mid[0] - before[0], mid[1] - before[1], mid[2] - before[2]})
		}
		for _, q := range []Plan{d.JoinAllPlan(), d.NoJoinsPlan(), d.JoinAllNoFKPlan(), p} {
			m, err := d.Materialize(q)
			if err != nil {
				t.Fatal(err)
			}
			before := counters()
			train, val, test, err := g.Designs(q)
			if err != nil {
				t.Fatal(err)
			}
			if after := counters(); after != before {
				t.Fatalf("a view moved the counters from %v to %v", before, after)
			}
			checkParts(t, m, split, train, val, test)
		}
		before = counters()
		m, err := d.Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		mid = counters()
		train, val, test, err := d.MaterializeSplit(p, split)
		if err != nil {
			t.Fatal(err)
		}
		for i, after := range counters() {
			if after-mid[i] != mid[i]-before[i] {
				t.Fatalf("MaterializeSplit moved counter %d by %d, Materialize moves it by %d", i, after-mid[i], mid[i]-before[i])
			}
		}
		checkParts(t, m, split, train, val, test)
		// A gather of p holds none of the columns p leaves out of JoinAll.
		if m.NumFeatures() < all.NumFeatures() {
			g, err := d.GatherSplit(p, split)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := g.Designs(d.JoinAllPlan()); err == nil || !strings.Contains(err.Error(), "not in the gathered plan") {
				t.Fatalf("a gather of %+v viewed JoinAll (error %v)", p, err)
			}
		}
		for _, q := range []Plan{{JoinFKs: []string{"Nope"}}, {DropFKs: []string{"Nope"}}} {
			_, want := d.Materialize(q)
			if _, _, _, err := g.Designs(q); err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("unknown FK in %+v: Designs error %v, Materialize error %v", q, err, want)
			}
		}
	}
	d := churn()
	split, err := NewSplit(d.NumRows(), DefaultFractions, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Plan{d.JoinAllPlan(), d.NoJoinsPlan(), d.JoinAllNoFKPlan()} {
		check(d, p, split)
	}
	rng := rand.New(rand.NewSource(12))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		d := randDataset(rng)
		if d.NumRows() < 4 {
			continue
		}
		split, err := DefaultSplit(d.NumRows(), stats.NewRNG(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		check(d, randPlan(rng, d), split)
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d random datasets had enough rows to split", checked)
	}

	// A dangling FK that the gathered plan does not join: the gather
	// succeeds (the FK is only a feature there), a view that joins it fails
	// as Materialize does.
	d = churn()
	d.Entity.Column("EmployerID").Data[5] = 4
	g, err := d.GatherSplit(d.NoJoinsPlan(), split)
	if err != nil {
		t.Fatal(err)
	}
	_, want := d.Materialize(d.JoinAllPlan())
	if _, _, _, err := g.Designs(d.JoinAllPlan()); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("dangling FK: Designs error %v, Materialize error %v", err, want)
	}
}

func TestDesignSubsetAndSelectRows(t *testing.T) {
	d := churn()
	m, _ := d.Materialize(d.JoinAllPlan())
	sub := m.Subset([]int{0, 2})
	if sub.NumFeatures() != 2 || sub.Features[1].Name != "EmployerID" {
		t.Fatalf("subset features = %v", sub.FeatureNames())
	}
	rows := m.SelectRows([]int{1, 3})
	if rows.NumRows() != 2 || rows.Y[0] != 1 || rows.Y[1] != 0 {
		t.Fatal("SelectRows labels wrong")
	}
	rows.Features[0].Data[0] = 3
	if m.Features[0].Data[1] == 3 && m.Features[0].Data[1] != 1 {
		t.Fatal("SelectRows must copy feature data")
	}
}

func TestSplitPartition(t *testing.T) {
	rng := stats.NewRNG(1)
	s, err := DefaultSplit(1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Train) != 500 || len(s.Validation) != 250 || len(s.Test) != 250 {
		t.Fatalf("split sizes = %d/%d/%d", len(s.Train), len(s.Validation), len(s.Test))
	}
	seen := make([]bool, 1000)
	for _, part := range [][]int{s.Train, s.Validation, s.Test} {
		for _, i := range part {
			if seen[i] {
				t.Fatalf("row %d in two parts", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d missing from split", i)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	rng := stats.NewRNG(2)
	if _, err := DefaultSplit(0, rng); err == nil {
		t.Fatal("zero-row split accepted")
	}
	if _, err := NewSplit(100, [3]float64{0.5, 0.6, 0.3}, rng); err == nil {
		t.Fatal("fractions summing > 1 accepted")
	}
	if _, err := NewSplit(100, [3]float64{0.5, -0.25, 0.75}, rng); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := NewSplit(2, DefaultFractions, rng); err == nil {
		t.Fatal("split leaving empty part accepted")
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, _ := DefaultSplit(100, stats.NewRNG(7))
	b, _ := DefaultSplit(100, stats.NewRNG(7))
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("same-seed splits differ")
		}
	}
}

func TestSplitApply(t *testing.T) {
	d := churn()
	m, _ := d.Materialize(d.JoinAllPlan())
	s, err := NewSplit(m.NumRows(), [3]float64{0.5, 0.25, 0.25}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, va, te := s.Apply(m)
	if tr.NumRows()+va.NumRows()+te.NumRows() != m.NumRows() {
		t.Fatal("Apply lost rows")
	}
	if tr.NumFeatures() != m.NumFeatures() {
		t.Fatal("Apply lost features")
	}
}
