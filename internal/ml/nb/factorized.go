package nb

import (
	"fmt"

	"hamlet/internal/dataset"
)

// Factorized training over normalized data. The paper's motivation (§1, §6)
// cites its companion work (Kumar et al., SIGMOD 2015) on avoiding the
// *materialization* of KFK joins: because the join only replicates
// attribute-table values along the foreign key, sufficient statistics over
// the joined table T factor through the FK. For Naive Bayes this is exact
// and simple:
//
//	count(F = v, Y = c)  =  Σ_{rid : R.F[rid] = v}  count(FK = rid, Y = c)
//
// so one pass over S tabulates the per-(FK, class) counts and one pass over
// each R_i aggregates them into every foreign feature's table — O(n_S·(d_S
// + k) + Σ n_Ri·d_Ri) work and no joined copy of the data, versus
// O(n_S·(d_S + k + Σ d_Ri)) for counting over the materialized join (plus
// its memory). StatsFromDataset produces bit-identical Stats to NewStats on
// the materialized design, which tests verify.

// StatsFromDataset tabulates Naive Bayes sufficient statistics for the
// JoinAll feature set of a normalized dataset without materializing any
// join. The feature order matches Dataset.Materialize(JoinAllPlan()): home
// features, then closed-domain FKs, then each joined table's features.
func StatsFromDataset(d *dataset.Dataset) (*Stats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	y := d.Entity.Column(d.Target)
	n := d.NumRows()
	s := &Stats{
		N:           n,
		NumClasses:  y.Card,
		ClassCounts: make([]int, y.Card),
	}
	for _, c := range y.Data {
		s.ClassCounts[c]++
	}
	addTable := func(card int, tab []int) {
		s.Cards = append(s.Cards, card)
		s.Counts = append(s.Counts, tab)
	}
	// Home features: direct tabulation over S.
	for _, name := range d.HomeFeatures {
		col := d.Entity.Column(name)
		tab := make([]int, y.Card*col.Card)
		for i, v := range col.Data {
			tab[int(y.Data[i])*col.Card+int(v)]++
		}
		addTable(col.Card, tab)
	}
	// Per-FK (FK, class) counts: tabulated once, reused for both the FK
	// feature itself and the factorized aggregation below.
	fkCounts := make(map[string][]int, len(d.Attrs))
	for _, at := range d.Attrs {
		fk := d.Entity.Column(at.FK)
		tab := make([]int, y.Card*fk.Card)
		for i, rid := range fk.Data {
			tab[int(y.Data[i])*fk.Card+int(rid)]++
		}
		fkCounts[at.FK] = tab
	}
	// Closed-domain FK features, in attribute order (as Materialize does).
	for _, at := range d.Attrs {
		if at.ClosedDomain {
			fk := d.Entity.Column(at.FK)
			addTable(fk.Card, fkCounts[at.FK])
		}
	}
	// Foreign features: aggregate the FK counts through each R_i.
	for _, at := range d.Attrs {
		base := fkCounts[at.FK]
		for _, rc := range at.Table.Columns() {
			tab := make([]int, y.Card*rc.Card)
			SumThrough(tab, base, y.Card, rc.Data, rc.Card)
			addTable(rc.Card, tab)
		}
	}
	return s, nil
}

// FitFactorized trains a Naive Bayes model over the full JoinAll feature set
// of a normalized dataset without materializing the join. The returned
// model predicts on design matrices materialized with JoinAllPlan (the
// column layouts match by construction).
func (l *Learner) FitFactorized(d *dataset.Dataset) (*Model, error) {
	s, err := StatsFromDataset(d)
	if err != nil {
		return nil, err
	}
	features := make([]int, len(s.Counts))
	for i := range features {
		features[i] = i
	}
	mod, err := ModelFromStats(s, features, l.Alpha)
	if err != nil {
		return nil, fmt.Errorf("nb: factorized fit: %w", err)
	}
	return mod, nil
}
