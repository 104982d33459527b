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
// referential integrity of every joined FK. Entity columns are shared with
// the entity table; foreign features are gathered through their FK.
func (d *Dataset) Materialize(p Plan) (*Design, error) {
	y, cols, err := d.planColumns(p)
	if err != nil {
		return nil, err
	}
	out := &Design{NumClasses: y.Card, Y: y.Data, Features: make([]Feature, len(cols))}
	for i, c := range cols {
		out.Features[i] = c.Feature
		if c.attr == nil {
			out.Features[i].Data = c.entity.Data
			continue
		}
		gathered := make([]int32, c.entity.Len())
		for j, rid := range c.entity.Data {
			gathered[j] = c.attr.Data[rid]
		}
		out.Features[i].Data = gathered
	}
	countMaterialized(out.NumRows(), out.NumFeatures())
	return out, nil
}

// SplitGather is one gather of a plan's columns and labels over the rows of
// a split, in train‖validation‖test order. Designs views it as the three
// designs of that plan, or of any plan whose columns are a subset of it: a
// plan that avoids joins or drops FKs only leaves columns out, so every plan
// of a dataset is a column subset of JoinAll. Views share the gathered
// columns, so no caller may write to a view's Data or Y.
type SplitGather struct {
	d          *Dataset
	numClasses int
	// y and cols[i].Data hold the labels and the plan's columns in split
	// order; parts holds the train, validation and test row counts.
	y     []int32
	cols  []planColumn
	parts [3]int
}

// GatherSplit gathers plan p's columns and the labels once, in
// train‖validation‖test row order, with one allocation per column, straight
// from the entity and attribute tables. Each joined table's FK is read
// through the split once: a foreign column reads its FK's codes from the
// FK feature's gathered column when p keeps that FK, and otherwise from one
// scratch gather of the FK per table. The split's indices must be rows of
// the entity table, as NewSplit's are. It counts as one materialization of
// the split's rows at p's width.
func (d *Dataset) GatherSplit(p Plan, s *Split) (*SplitGather, error) {
	y, cols, err := d.planColumns(p)
	if err != nil {
		return nil, err
	}
	parts := [3][]int{s.Train, s.Validation, s.Test}
	n := len(s.Train) + len(s.Validation) + len(s.Test)
	g := &SplitGather{d: d, numClasses: y.Card, y: make([]int32, n), cols: cols,
		parts: [3]int{len(s.Train), len(s.Validation), len(s.Test)}}
	gatherRows(g.y, y.Data, parts)
	// fk is the FK whose split-order codes are in codes.
	var fk *relational.Column
	var codes, scratch []int32
	for i := range cols {
		c := &cols[i]
		// One allocation per column, not one for the whole design: a single
		// multi-megabyte block raised the analyze workload's peak RSS.
		c.Data = make([]int32, n)
		if c.attr == nil {
			gatherRows(c.Data, c.entity.Data, parts)
			continue
		}
		if c.entity != fk {
			fk, codes = c.entity, nil
			for k := range cols[:i] {
				if cols[k].attr == nil && cols[k].entity == fk {
					codes = cols[k].Data
					break
				}
			}
			if codes == nil {
				if scratch == nil {
					scratch = make([]int32, n)
				}
				gatherRows(scratch, fk.Data, parts)
				codes = scratch
			}
		}
		dst, attr := c.Data[:len(codes)], c.attr.Data
		for j, r := range codes {
			dst[j] = attr[r]
		}
	}
	countMaterialized(n, len(cols))
	return g, nil
}

// Designs returns plan q's training, validation and test designs as views
// of the gather, equal to Materialize(q) followed by Split.Apply. Each view
// column is capped at its part's length, so an append to one part cannot
// overwrite the next. q is validated as Materialize validates it, and must
// be a column subset of the gathered plan; any other plan is an error.
// Views are not counted as materializations: the gather was.
func (g *SplitGather) Designs(q Plan) (train, val, test *Design, err error) {
	_, cols, err := g.d.planColumns(q)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range cols {
		c := &cols[i]
		for k := range g.cols {
			if g.cols[k].entity == c.entity && g.cols[k].attr == c.attr {
				c.Data = g.cols[k].Data
				break
			}
		}
		if c.Data == nil {
			return nil, nil, nil, fmt.Errorf("dataset %q: plan column %q (%s) is not in the gathered plan", g.d.Name, c.Name, c.Source)
		}
	}
	var out [3]*Design
	lo := 0
	for k, rows := range g.parts {
		hi := lo + rows
		m := &Design{NumClasses: g.numClasses, Y: g.y[lo:hi:hi], Features: make([]Feature, len(cols))}
		for i, c := range cols {
			m.Features[i] = c.Feature
			m.Features[i].Data = c.Data[lo:hi:hi]
		}
		out[k], lo = m, hi
	}
	return out[0], out[1], out[2], nil
}

// MaterializeSplit builds the plan's design matrix for the three parts of
// the split at once, equal to Materialize followed by s.Apply: it is
// GatherSplit(p, s).Designs(p).
func (d *Dataset) MaterializeSplit(p Plan, s *Split) (train, val, test *Design, err error) {
	g, err := d.GatherSplit(p, s)
	if err != nil {
		return nil, nil, nil, err
	}
	return g.Designs(p)
}

// gatherRows copies data's values at the parts' row indices into dst, the
// parts one after another.
func gatherRows(dst, data []int32, parts [3][]int) {
	j := 0
	for _, rows := range parts {
		for _, r := range rows {
			dst[j] = data[r]
			j++
		}
	}
}

// planColumn is one design-matrix column of a plan: the feature's metadata
// (Data unset until a gather fills it) and where its values come from.
// entity is the entity column read per row: the feature's own column, or
// for a foreign feature (attr non-nil) the FK whose codes index attr, the
// attribute-table column.
type planColumn struct {
	Feature
	entity, attr *relational.Column
}

// planColumns validates p against d and returns the target column and the
// plan's columns in design order.
func (d *Dataset) planColumns(p Plan) (*relational.Column, []planColumn, error) {
	y := d.Entity.Column(d.Target)
	if y == nil {
		return nil, nil, fmt.Errorf("dataset %q: target %q missing", d.Name, d.Target)
	}
	for _, fk := range p.JoinFKs {
		at := d.AttrByFK(fk)
		if at == nil {
			return nil, nil, fmt.Errorf("dataset %q: plan joins unknown FK %q", d.Name, fk)
		}
		// The gather indexes the attribute table by RID, so a dangling FK
		// must be an error here rather than an index panic below.
		if err := relational.CheckRef(d.Entity.Column(fk), at.Table); err != nil {
			return nil, nil, fmt.Errorf("dataset %q: %w", d.Name, err)
		}
	}
	for _, fk := range p.DropFKs {
		if d.AttrByFK(fk) == nil {
			return nil, nil, fmt.Errorf("dataset %q: plan drops unknown FK %q", d.Name, fk)
		}
	}
	var cols []planColumn
	for _, name := range d.HomeFeatures {
		c := d.Entity.Column(name)
		cols = append(cols, planColumn{Feature: Feature{Name: c.Name, Card: c.Card, Source: "S"}, entity: c})
	}
	for _, at := range d.Attrs {
		if at.ClosedDomain && !contains(p.DropFKs, at.FK) {
			fk := d.Entity.Column(at.FK)
			cols = append(cols, planColumn{Feature: Feature{Name: fk.Name, Card: fk.Card, Source: "S", IsFK: true}, entity: fk})
		}
	}
	for _, at := range d.Attrs {
		if !contains(p.JoinFKs, at.FK) {
			continue
		}
		fk := d.Entity.Column(at.FK)
		for _, rc := range at.Table.Columns() {
			cols = append(cols, planColumn{Feature: Feature{Name: rc.Name, Card: rc.Card, Source: at.Table.Name}, entity: fk, attr: rc})
		}
	}
	return y, cols, nil
}

// countMaterialized records one design of the given shape.
func countMaterialized(rows, features int) {
	materializeCount.Inc()
	materializeRows.Add(int64(rows))
	materializeCells.Add(int64(rows) * int64(features))
	materializeHist.Observe(int64(rows))
}
