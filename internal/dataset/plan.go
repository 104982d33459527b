package dataset

import (
	"fmt"

	"hamlet/internal/obs"
	"hamlet/internal/relational"
)

// Materialization instrumentation: designs built, rows and cells gathered
// into design matrices, and the per-design row-count distribution.
var (
	materializeCount = obs.C("dataset.materializations")
	materializeRows  = obs.C("dataset.rows_materialized")
	materializeCells = obs.C("dataset.cells_materialized")
	materializeHist  = obs.H("dataset.design_rows")
)

// Plan describes which attribute-table joins to perform and whether
// closed-domain foreign keys are kept as features, i.e. one point in the
// paper's comparison space (JoinAll, JoinOpt, NoJoins, JoinAllNoFK, and the
// per-subset plans of Figure 8(A)).
type Plan struct {
	// JoinFKs lists the FKs whose attribute tables are joined (their
	// foreign features enter the design matrix). FKs not listed are
	// avoided: their X_R never enters, and the FK column itself represents
	// the attribute table (if the FK has a closed domain).
	JoinFKs []string
	// DropFKs lists closed-domain FK columns to exclude from the feature
	// set entirely (the paper's JoinAllNoFK ablation). Open-domain FKs are
	// always excluded regardless.
	DropFKs []string
}

// contains reports membership of name in names.
func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// JoinAllPlan joins every attribute table and keeps closed-domain FKs: the
// analyst's default that the paper calls JoinAll.
func (d *Dataset) JoinAllPlan() Plan {
	p := Plan{}
	for _, at := range d.Attrs {
		p.JoinFKs = append(p.JoinFKs, at.FK)
	}
	return p
}

// NoJoinsPlan avoids every avoidable join. Attribute tables referenced by
// open-domain FKs are still joined, because their FK cannot act as a
// representative feature (the rule's precondition fails).
func (d *Dataset) NoJoinsPlan() Plan {
	p := Plan{}
	for _, at := range d.Attrs {
		if !at.ClosedDomain {
			p.JoinFKs = append(p.JoinFKs, at.FK)
		}
	}
	return p
}

// JoinAllNoFKPlan joins every attribute table but drops all closed-domain FK
// features: the paper's Figure 8(C) ablation modeling analysts who discard
// "uninterpretable" ID features.
func (d *Dataset) JoinAllNoFKPlan() Plan {
	p := d.JoinAllPlan()
	for _, at := range d.Attrs {
		if at.ClosedDomain {
			p.DropFKs = append(p.DropFKs, at.FK)
		}
	}
	return p
}

// Materialize builds the design matrix for the given plan: home features
// first, then (usable) FK features, then foreign features of each joined
// attribute table, in declaration order. It validates the plan's FKs and the
// referential integrity of every joined FK.
func (d *Dataset) Materialize(p Plan) (*Design, error) {
	y := d.Entity.Column(d.Target)
	if y == nil {
		return nil, fmt.Errorf("dataset %q: target %q missing", d.Name, d.Target)
	}
	for _, fk := range p.JoinFKs {
		at := d.AttrByFK(fk)
		if at == nil {
			return nil, fmt.Errorf("dataset %q: plan joins unknown FK %q", d.Name, fk)
		}
		// The gather indexes the attribute table by RID, so a dangling FK
		// must be an error here rather than an index panic below.
		if err := relational.CheckRef(d.Entity.Column(fk), at.Table); err != nil {
			return nil, fmt.Errorf("dataset %q: %w", d.Name, err)
		}
	}
	for _, fk := range p.DropFKs {
		if d.AttrByFK(fk) == nil {
			return nil, fmt.Errorf("dataset %q: plan drops unknown FK %q", d.Name, fk)
		}
	}
	out := &Design{NumClasses: y.Card, Y: y.Data}
	for _, name := range d.HomeFeatures {
		c := d.Entity.Column(name)
		out.Features = append(out.Features, Feature{Name: c.Name, Card: c.Card, Data: c.Data, Source: "S"})
	}
	for _, at := range d.Attrs {
		if at.ClosedDomain && !contains(p.DropFKs, at.FK) {
			fk := d.Entity.Column(at.FK)
			out.Features = append(out.Features, Feature{Name: fk.Name, Card: fk.Card, Data: fk.Data, Source: "S", IsFK: true})
		}
	}
	for _, at := range d.Attrs {
		if !contains(p.JoinFKs, at.FK) {
			continue
		}
		fk := d.Entity.Column(at.FK)
		for _, rc := range at.Table.Columns() {
			gathered := make([]int32, fk.Len())
			for i, rid := range fk.Data {
				gathered[i] = rc.Data[rid]
			}
			out.Features = append(out.Features, Feature{Name: rc.Name, Card: rc.Card, Data: gathered, Source: at.Table.Name})
		}
	}
	materializeCount.Inc()
	materializeRows.Add(int64(out.NumRows()))
	materializeCells.Add(int64(out.NumRows()) * int64(out.NumFeatures()))
	materializeHist.Observe(int64(out.NumRows()))
	return out, nil
}
