// Package dataset provides Hamlet-Go's normalized-dataset abstraction: an
// entity table S(SID, Y, X_S, FK_1..FK_k) plus attribute tables R_i(RID_i,
// X_Ri) connected by key–foreign-key references, exactly the schema setting
// of the paper's §2.1. It materializes the design matrices that the ML and
// feature-selection layers consume under the paper's four join plans
// (JoinAll, JoinOpt, NoJoins, JoinAllNoFK) and performs the 50/25/25 holdout
// split used throughout the evaluation. The evaluation gathers JoinAll's
// columns once per split (GatherSplit), in train‖validation‖test row order
// and reading each joined FK once, and views every plan's three designs in
// that gather (SplitGather.Designs): avoiding a join or dropping an FK only
// leaves columns out, so every plan is a column subset of JoinAll.
package dataset

import (
	"fmt"

	"hamlet/internal/relational"
)

// AttributeTable pairs an attribute table R_i with the entity-table FK that
// references it.
type AttributeTable struct {
	// Table is R_i; its row index is the primary key RID_i.
	Table *relational.Table
	// FK names the referencing column in the entity table.
	FK string
	// ClosedDomain records whether the FK's domain is closed with respect
	// to the prediction task (§2.1). Open-domain FKs (e.g. Expedia's
	// SearchID) are never usable as features and never considered by the
	// join-avoidance rules; their joins are always performed.
	ClosedDomain bool
}

// Dataset is a normalized dataset: the entity table with target and home
// features, plus k attribute tables reachable through foreign keys.
type Dataset struct {
	// Name identifies the dataset (e.g. "Walmart").
	Name string
	// Entity is S. It must contain Target, every feature in HomeFeatures,
	// and every FK column named by Attrs.
	Entity *relational.Table
	// Target names the label column Y in the entity table.
	Target string
	// HomeFeatures names the X_S columns in the entity table.
	HomeFeatures []string
	// Attrs lists the attribute tables R_1..R_k in declaration order.
	Attrs []AttributeTable
}

// Validate checks structural integrity: the target and home features exist,
// every FK exists and satisfies referential integrity against its attribute
// table, and all tables have valid domains.
func (d *Dataset) Validate() error {
	if d.Entity == nil {
		return fmt.Errorf("dataset %q: nil entity table", d.Name)
	}
	if err := d.Entity.Validate(); err != nil {
		return fmt.Errorf("dataset %q: %w", d.Name, err)
	}
	if d.Entity.Column(d.Target) == nil {
		return fmt.Errorf("dataset %q: target column %q missing", d.Name, d.Target)
	}
	for _, f := range d.HomeFeatures {
		if d.Entity.Column(f) == nil {
			return fmt.Errorf("dataset %q: home feature %q missing", d.Name, f)
		}
		if f == d.Target {
			return fmt.Errorf("dataset %q: target %q listed as a home feature", d.Name, f)
		}
	}
	for i, at := range d.Attrs {
		if at.Table == nil {
			return fmt.Errorf("dataset %q: attribute table %d is nil", d.Name, i)
		}
		if err := at.Table.Validate(); err != nil {
			return fmt.Errorf("dataset %q: %w", d.Name, err)
		}
		fk := d.Entity.Column(at.FK)
		if fk == nil {
			return fmt.Errorf("dataset %q: FK column %q missing from entity table", d.Name, at.FK)
		}
		if err := relational.CheckRef(fk, at.Table); err != nil {
			return fmt.Errorf("dataset %q: %w", d.Name, err)
		}
	}
	return nil
}

// NumClasses returns the cardinality of the target.
func (d *Dataset) NumClasses() int {
	c := d.Entity.Column(d.Target)
	if c == nil {
		return 0
	}
	return c.Card
}

// NumRows returns the number of entity-table rows (labeled examples).
func (d *Dataset) NumRows() int { return d.Entity.NumRows() }

// AttrByFK returns the attribute table referenced by the named FK, or nil.
func (d *Dataset) AttrByFK(fk string) *AttributeTable {
	for i := range d.Attrs {
		if d.Attrs[i].FK == fk {
			return &d.Attrs[i]
		}
	}
	return nil
}

// Feature is one column of a design matrix: a nominal feature with its
// provenance recorded so experiment reports can attribute selected features
// to base tables.
type Feature struct {
	// Name is the feature's column name.
	Name string
	// Card is its domain size.
	Card int
	// Data holds one category code per example.
	Data []int32
	// Source names the base table the feature came from ("S" for entity
	// home features and FKs, or the attribute table's name).
	Source string
	// IsFK marks foreign-key columns used as features.
	IsFK bool
}

// Design is a single-table design matrix: the features under some join plan
// plus the label column. It is the input to every classifier and feature
// selection method in Hamlet-Go.
type Design struct {
	// Features holds the candidate feature columns, X.
	Features []Feature
	// Y holds the labels, one per example.
	Y []int32
	// NumClasses is the cardinality of the target.
	NumClasses int
}

// NumRows returns the number of examples.
func (m *Design) NumRows() int { return len(m.Y) }

// NumFeatures returns the number of candidate features.
func (m *Design) NumFeatures() int { return len(m.Features) }

// FeatureIndex returns the index of the named feature, or -1.
func (m *Design) FeatureIndex(name string) int {
	for i := range m.Features {
		if m.Features[i].Name == name {
			return i
		}
	}
	return -1
}

// FeatureNames returns the feature names in order.
func (m *Design) FeatureNames() []string {
	names := make([]string, len(m.Features))
	for i := range m.Features {
		names[i] = m.Features[i].Name
	}
	return names
}

// Subset returns a view of the design matrix restricted to the feature
// indices in keep (shared column storage, same labels).
func (m *Design) Subset(keep []int) *Design {
	out := &Design{Y: m.Y, NumClasses: m.NumClasses}
	out.Features = make([]Feature, len(keep))
	for j, i := range keep {
		out.Features[j] = m.Features[i]
	}
	return out
}

// SelectRows materializes a new design matrix containing only the rows at the
// given indices. Feature data is copied.
func (m *Design) SelectRows(idx []int) *Design {
	out := &Design{NumClasses: m.NumClasses}
	out.Y = make([]int32, len(idx))
	for j, i := range idx {
		out.Y[j] = m.Y[i]
	}
	out.Features = make([]Feature, len(m.Features))
	for fi := range m.Features {
		src := &m.Features[fi]
		data := make([]int32, len(idx))
		for j, i := range idx {
			data[j] = src.Data[i]
		}
		out.Features[fi] = Feature{Name: src.Name, Card: src.Card, Data: data, Source: src.Source, IsFK: src.IsFK}
	}
	return out
}
