package relational

import (
	"fmt"

	"hamlet/internal/obs"
)

// Join instrumentation: materializations performed, FK probes (one per
// output row per joined table), cells gathered, and the row-count
// distribution of materialized joins.
var (
	joinCount    = obs.C("relational.joins")
	joinProbes   = obs.C("relational.join_probes")
	joinCells    = obs.C("relational.cells_gathered")
	joinRowsHist = obs.H("relational.join_rows")
)

// ForeignKey describes a KFK reference: a column of the entity table whose
// codes are row indices (RIDs) into an attribute table. Whether the FK's
// domain is closed with respect to the prediction task (paper §2.1) is a
// schema-level property the analyst declares; only closed-domain FKs may be
// used as features and considered by the join-avoidance rules.
type ForeignKey struct {
	// Column is the FK column's name in the entity table.
	Column string
	// Refs is the name of the referenced attribute table.
	Refs string
	// ClosedDomain records whether the FK's domain is closed with respect
	// to the prediction task (e.g. EmployerID yes, SearchID no).
	ClosedDomain bool
}

// CheckRef verifies referential integrity of the FK column fk against the
// attribute table r: every code must be a valid row index of r, and the FK
// column's declared cardinality must equal r's row count (the paper assumes
// D_FK equals the set of RID values in R).
func CheckRef(fk *Column, r *Table) error {
	if fk == nil {
		return fmt.Errorf("relational: nil foreign-key column")
	}
	if fk.Card != r.NumRows() {
		return fmt.Errorf("relational: FK %q cardinality %d != %d rows of %q", fk.Name, fk.Card, r.NumRows(), r.Name)
	}
	for i, v := range fk.Data {
		if v < 0 || int(v) >= r.NumRows() {
			return fmt.Errorf("relational: FK %q row %d dangles: RID %d not in %q [0,%d)", fk.Name, i, v, r.Name, r.NumRows())
		}
	}
	return nil
}

// Join materializes the KFK equi-join T = S ⋈_{FK=RID} R for one foreign key:
// it returns a new table with all of s's columns followed by r's feature
// columns gathered through the FK. The FK column itself is retained (the
// paper's T keeps FK). Column-name collisions are an error.
func Join(s *Table, fkName string, r *Table) (*Table, error) {
	fk := s.Column(fkName)
	if fk == nil {
		return nil, fmt.Errorf("relational: join: entity table %q has no FK column %q", s.Name, fkName)
	}
	if err := CheckRef(fk, r); err != nil {
		return nil, err
	}
	joinCount.Inc()
	joinProbes.Add(int64(fk.Len()))
	joinCells.Add(int64(fk.Len()) * int64(len(r.Columns())))
	joinRowsHist.Observe(int64(fk.Len()))
	out := NewTable(s.Name + "⋈" + r.Name)
	for _, c := range s.Columns() {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	for _, rc := range r.Columns() {
		if s.HasColumn(rc.Name) {
			return nil, fmt.Errorf("relational: join: column %q exists in both %q and %q", rc.Name, s.Name, r.Name)
		}
		gathered := make([]int32, fk.Len())
		for i, rid := range fk.Data {
			gathered[i] = rc.Data[rid]
		}
		if err := out.AddColumn(&Column{Name: rc.Name, Card: rc.Card, Data: gathered}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// JoinAll materializes joins of the entity table with each attribute table in
// turn. fks[i].Refs must name a key of attrs. Tables are joined in the order
// of fks.
//
// JoinAll is the reference join chain that dataset tests compare
// Dataset.Materialize against: materializeViaJoin in dataset_test.go and
// FuzzMaterialize in fuzz_test.go.
func JoinAll(s *Table, fks []ForeignKey, attrs map[string]*Table) (*Table, error) {
	cur := s
	for _, fk := range fks {
		r, ok := attrs[fk.Refs]
		if !ok {
			return nil, fmt.Errorf("relational: join: unknown attribute table %q", fk.Refs)
		}
		var err error
		cur, err = Join(cur, fk.Column, r)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// HoldsFD reports whether the functional dependency det → dep holds in the
// table: any two rows that agree on det also agree on dep. It runs in one
// pass with a map from det value to the first observed dep value.
//
// The paper's Proposition 3.1 rests on the fact that a KFK join materializes
// the FD FK → X_R in T; tests use HoldsFD to verify that Join preserves it.
func HoldsFD(t *Table, det, dep string) (bool, error) {
	d := t.Column(det)
	if d == nil {
		return false, fmt.Errorf("relational: FD check: no column %q", det)
	}
	e := t.Column(dep)
	if e == nil {
		return false, fmt.Errorf("relational: FD check: no column %q", dep)
	}
	seen := make(map[int32]int32, d.Card)
	for i := range d.Data {
		k := d.Data[i]
		if v, ok := seen[k]; ok {
			if v != e.Data[i] {
				return false, nil
			}
		} else {
			seen[k] = e.Data[i]
		}
	}
	return true, nil
}
