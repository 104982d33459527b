package relational

import (
	"strings"
	"testing"
	"testing/quick"

	"hamlet/internal/stats"
)

func mkCol(name string, card int, data ...int32) *Column {
	return &Column{Name: name, Card: card, Data: data}
}

func TestColumnValidate(t *testing.T) {
	if err := mkCol("a", 2, 0, 1, 1).Validate(); err != nil {
		t.Fatalf("valid column rejected: %v", err)
	}
	if err := mkCol("a", 2, 0, 2).Validate(); err == nil {
		t.Fatal("out-of-domain code accepted")
	}
	if err := mkCol("a", 2, -1).Validate(); err == nil {
		t.Fatal("negative code accepted")
	}
	if err := mkCol("a", 0).Validate(); err == nil {
		t.Fatal("nonpositive cardinality accepted")
	}
}

func TestTableAddColumnShape(t *testing.T) {
	tab := NewTable("T")
	if err := tab.AddColumn(mkCol("a", 2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn(mkCol("b", 3, 0, 1, 2)); err == nil {
		t.Fatal("ragged column accepted")
	}
	if err := tab.AddColumn(mkCol("a", 2, 1, 0)); err == nil {
		t.Fatal("duplicate column name accepted")
	}
	if err := tab.AddColumn(nil); err == nil {
		t.Fatal("nil column accepted")
	}
	if tab.NumRows() != 2 || tab.NumCols() != 1 {
		t.Fatalf("shape = (%d,%d), want (2,1)", tab.NumRows(), tab.NumCols())
	}
}

func TestTableLookupAndNames(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("x", 2, 0, 1))
	tab.MustAddColumn(mkCol("y", 2, 1, 0))
	if tab.Column("x") == nil || tab.Column("z") != nil {
		t.Fatal("column lookup broken")
	}
	if !tab.HasColumn("y") || tab.HasColumn("z") {
		t.Fatal("HasColumn broken")
	}
	names := tab.ColumnNames()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("names = %v", names)
	}
}

func TestEmptyTableNumRows(t *testing.T) {
	if NewTable("E").NumRows() != 0 {
		t.Fatal("empty table should report 0 rows")
	}
}

func TestProject(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 2, 0, 1))
	tab.MustAddColumn(mkCol("b", 2, 1, 1))
	p, err := tab.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 1 || p.Column("b") == nil {
		t.Fatal("projection wrong")
	}
	if _, err := tab.Project("missing"); err == nil {
		t.Fatal("projecting missing column should fail")
	}
	// Zero-copy: mutating the projection's data mutates the source.
	p.Column("b").Data[0] = 0
	if tab.Column("b").Data[0] != 0 {
		t.Fatal("projection should share column storage")
	}
}

func TestSelectRows(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 4, 0, 1, 2, 3))
	sel, err := tab.SelectRows([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumRows() != 2 || sel.Column("a").Data[0] != 3 || sel.Column("a").Data[1] != 1 {
		t.Fatalf("selected data = %v", sel.Column("a").Data)
	}
	if _, err := tab.SelectRows([]int{4}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
	// SelectRows copies: mutation must not leak back.
	sel.Column("a").Data[0] = 0
	if tab.Column("a").Data[3] != 3 {
		t.Fatal("SelectRows must copy data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 2, 0, 1))
	c := tab.Clone()
	c.Column("a").Data[0] = 1
	if tab.Column("a").Data[0] != 0 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable("Employers")
	tab.MustAddColumn(mkCol("Country", 190, 0))
	s := tab.String()
	if !strings.Contains(s, "Employers(") || !strings.Contains(s, "Country:190") || !strings.Contains(s, "[1 rows]") {
		t.Fatalf("String() = %q", s)
	}
}

func TestValidateRaggedAndDomains(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 2, 0, 1))
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tab.cols[0].Data = append(tab.cols[0].Data, 5) // corrupt
	if err := tab.Validate(); err == nil {
		t.Fatal("corrupted table validated")
	}
}

// churnFixture builds the paper's running example: Customers ⋈ Employers.
func churnFixture() (*Table, *Table) {
	employers := NewTable("Employers")
	employers.MustAddColumn(mkCol("Country", 3, 0, 1, 2, 0))
	employers.MustAddColumn(mkCol("Revenue", 2, 1, 0, 1, 1))
	customers := NewTable("Customers")
	customers.MustAddColumn(mkCol("Churn", 2, 0, 1, 1, 0, 1, 0))
	customers.MustAddColumn(mkCol("Age", 4, 0, 1, 2, 3, 1, 2))
	customers.MustAddColumn(mkCol("EmployerID", 4, 0, 1, 2, 3, 1, 0))
	return customers, employers
}

func TestJoinGathersForeignFeatures(t *testing.T) {
	s, r := churnFixture()
	joined, err := Join(s, "EmployerID", r)
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != 6 || joined.NumCols() != 5 {
		t.Fatalf("joined shape = (%d,%d)", joined.NumRows(), joined.NumCols())
	}
	// Row 4 has EmployerID 1 → Country 1, Revenue 0.
	if joined.Column("Country").Data[4] != 1 || joined.Column("Revenue").Data[4] != 0 {
		t.Fatal("gather through FK incorrect")
	}
	// The FK column must be retained (the paper's T keeps FK).
	if !joined.HasColumn("EmployerID") {
		t.Fatal("join must keep the FK column")
	}
}

func TestJoinErrors(t *testing.T) {
	s, r := churnFixture()
	if _, err := Join(s, "NoSuchFK", r); err == nil {
		t.Fatal("missing FK accepted")
	}
	// Dangling RID.
	bad := s.Clone()
	bad.Column("EmployerID").Data[0] = 9
	if _, err := Join(bad, "EmployerID", r); err == nil {
		t.Fatal("dangling FK accepted")
	}
	// Cardinality mismatch (FK domain must equal R's row count).
	bad2 := s.Clone()
	bad2.Column("EmployerID").Card = 3
	if _, err := Join(bad2, "EmployerID", r); err == nil {
		t.Fatal("FK/RID cardinality mismatch accepted")
	}
	// Name collision.
	collide := r.Clone()
	collide.cols[0].Name = "Age"
	delete(collide.byName, "Country")
	collide.byName["Age"] = 0
	if _, err := Join(s, "EmployerID", collide); err == nil {
		t.Fatal("column collision accepted")
	}
}

func TestJoinAllMultipleTables(t *testing.T) {
	s, r := churnFixture()
	r2 := NewTable("Plans")
	r2.MustAddColumn(mkCol("Tier", 2, 0, 1))
	s2 := s.Clone()
	s2.MustAddColumn(mkCol("PlanID", 2, 0, 1, 0, 1, 0, 1))
	joined, err := JoinAll(s2, []ForeignKey{
		{Column: "EmployerID", Refs: "Employers", ClosedDomain: true},
		{Column: "PlanID", Refs: "Plans", ClosedDomain: true},
	}, map[string]*Table{"Employers": r, "Plans": r2})
	if err != nil {
		t.Fatal(err)
	}
	if !joined.HasColumn("Country") || !joined.HasColumn("Tier") {
		t.Fatal("JoinAll missing gathered columns")
	}
	if _, err := JoinAll(s2, []ForeignKey{{Column: "PlanID", Refs: "Nope"}}, nil); err == nil {
		t.Fatal("unknown attribute table accepted")
	}
}

// TestJoinMaterializesFD verifies the fact underlying Proposition 3.1: after
// a KFK join, the FD FK → F holds in T for every foreign feature F. This is
// a property test over random instances.
func TestJoinMaterializesFD(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		nR := 2 + rr.IntN(30)
		nS := 10 + rr.IntN(200)
		r := NewTable("R")
		cty := make([]int32, nR)
		rev := make([]int32, nR)
		for i := range cty {
			cty[i] = int32(rr.IntN(4))
			rev[i] = int32(rr.IntN(3))
		}
		r.MustAddColumn(&Column{Name: "F1", Card: 4, Data: cty})
		r.MustAddColumn(&Column{Name: "F2", Card: 3, Data: rev})
		s := NewTable("S")
		fk := make([]int32, nS)
		y := make([]int32, nS)
		for i := range fk {
			fk[i] = int32(rr.IntN(nR))
			y[i] = int32(rr.IntN(2))
		}
		s.MustAddColumn(&Column{Name: "Y", Card: 2, Data: y})
		s.MustAddColumn(&Column{Name: "FK", Card: nR, Data: fk})
		joined, err := Join(s, "FK", r)
		if err != nil {
			return false
		}
		for _, dep := range []string{"F1", "F2"} {
			ok, err := HoldsFD(joined, "FK", dep)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("FD FK→X_R not preserved by Join: %v", err)
	}
}

func TestHoldsFDNegative(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 2, 0, 0, 1))
	tab.MustAddColumn(mkCol("b", 2, 0, 1, 0))
	ok, err := HoldsFD(tab, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("FD a→b should not hold")
	}
	if _, err := HoldsFD(tab, "missing", "b"); err == nil {
		t.Fatal("missing determinant accepted")
	}
	if _, err := HoldsFD(tab, "a", "missing"); err == nil {
		t.Fatal("missing dependent accepted")
	}
}

func TestCheckRefNil(t *testing.T) {
	r := NewTable("R")
	r.MustAddColumn(mkCol("f", 2, 0, 1))
	if err := CheckRef(nil, r); err == nil {
		t.Fatal("nil FK accepted")
	}
}
