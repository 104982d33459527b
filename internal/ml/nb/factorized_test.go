package nb

import (
	"reflect"
	"testing"
	"testing/quick"

	"hamlet/internal/dataset"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// randomDataset builds a random normalized dataset with two attribute
// tables (one open-domain) and a couple of home features.
func randomDataset(seed uint64) *dataset.Dataset {
	r := stats.NewRNG(seed)
	nS := 50 + r.IntN(300)
	nR1 := 2 + r.IntN(20)
	nR2 := 2 + r.IntN(12)
	mkAttr := func(name string, rows, feats int) *relational.Table {
		t := relational.NewTable(name)
		for f := 0; f < feats; f++ {
			card := 2 + r.IntN(4)
			data := make([]int32, rows)
			for i := range data {
				data[i] = int32(r.IntN(card))
			}
			t.MustAddColumn(&relational.Column{Name: name + string(rune('a'+f)), Card: card, Data: data})
		}
		return t
	}
	r1 := mkAttr("R1", nR1, 1+r.IntN(3))
	r2 := mkAttr("R2", nR2, 1+r.IntN(3))
	s := relational.NewTable("S")
	y := make([]int32, nS)
	xs := make([]int32, nS)
	fk1 := make([]int32, nS)
	fk2 := make([]int32, nS)
	classes := 2 + r.IntN(3)
	for i := 0; i < nS; i++ {
		y[i] = int32(r.IntN(classes))
		xs[i] = int32(r.IntN(3))
		fk1[i] = int32(r.IntN(nR1))
		fk2[i] = int32(r.IntN(nR2))
	}
	s.MustAddColumn(&relational.Column{Name: "Y", Card: classes, Data: y})
	s.MustAddColumn(&relational.Column{Name: "XS", Card: 3, Data: xs})
	s.MustAddColumn(&relational.Column{Name: "FK1", Card: nR1, Data: fk1})
	s.MustAddColumn(&relational.Column{Name: "FK2", Card: nR2, Data: fk2})
	return &dataset.Dataset{
		Name:         "Rand",
		Entity:       s,
		Target:       "Y",
		HomeFeatures: []string{"XS"},
		Attrs: []dataset.AttributeTable{
			{Table: r1, FK: "FK1", ClosedDomain: true},
			{Table: r2, FK: "FK2", ClosedDomain: r.Bernoulli(0.5)},
		},
	}
}

// edgeDataset builds a dataset at the corners randomDataset never reaches:
// nS entity rows, nAttrs attribute tables of card rows each (so the FKs
// have cardinality card too), and home and foreign features of cardinality
// card. The second attribute table, if any, is open-domain.
func edgeDataset(seed uint64, nS, nAttrs, card int) *dataset.Dataset {
	r := stats.NewRNG(seed)
	col := func(name string, card, rows int) *relational.Column {
		data := make([]int32, rows)
		for i := range data {
			data[i] = int32(r.IntN(card))
		}
		return &relational.Column{Name: name, Card: card, Data: data}
	}
	s := relational.NewTable("S")
	s.MustAddColumn(col("Y", 2, nS))
	s.MustAddColumn(col("XS", card, nS))
	d := &dataset.Dataset{Name: "Edge", Entity: s, Target: "Y", HomeFeatures: []string{"XS"}}
	for a := 0; a < nAttrs; a++ {
		name := "R" + string(rune('1'+a))
		rt := relational.NewTable(name)
		rt.MustAddColumn(col(name+"a", card, card))
		rt.MustAddColumn(col(name+"b", card, card))
		fk := "FK" + string(rune('1'+a))
		s.MustAddColumn(col(fk, card, nS))
		d.Attrs = append(d.Attrs, dataset.AttributeTable{Table: rt, FK: fk, ClosedDomain: a == 0})
	}
	return d
}

// TestFactorizedStatsMatchMaterialized is the core correctness property:
// statistics computed without the join must be bit-identical to statistics
// tabulated over the materialized JoinAll design, on random datasets and on
// the edge cases: no attribute tables, a 1-row entity, cardinality-1
// columns.
func TestFactorizedStatsMatchMaterialized(t *testing.T) {
	matches := func(d *dataset.Dataset) bool {
		factorized, err := StatsFromDataset(d)
		if err != nil {
			return false
		}
		design, err := d.Materialize(d.JoinAllPlan())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(factorized, NewStats(design))
	}
	if err := quick.Check(func(seed uint64) bool {
		return matches(randomDataset(seed))
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("factorized statistics diverge from materialized: %v", err)
	}
	edges := []struct {
		name             string
		nS, nAttrs, card int
	}{
		{"no attribute tables", 30, 0, 3},
		{"1-row entity", 1, 2, 3},
		{"cardinality-1 columns", 30, 2, 1},
		{"1-row entity, no attribute tables, cardinality 1", 1, 0, 1},
	}
	for i, e := range edges {
		if !matches(edgeDataset(uint64(i), e.nS, e.nAttrs, e.card)) {
			t.Errorf("%s: factorized statistics diverge from materialized", e.name)
		}
	}
}

func TestFitFactorizedPredictsIdentically(t *testing.T) {
	d := randomDataset(42)
	design, err := d.Materialize(d.JoinAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	factorized, err := New().FitFactorized(d)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, design.NumFeatures())
	for i := range all {
		all[i] = i
	}
	direct, err := New().Fit(design, all)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < design.NumRows(); i++ {
		if factorized.Predict(design, i) != direct.Predict(design, i) {
			t.Fatalf("factorized and materialized models disagree at row %d", i)
		}
	}
}

func TestStatsFromDatasetValidates(t *testing.T) {
	d := randomDataset(7)
	d.Target = "Nope"
	if _, err := StatsFromDataset(d); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}
