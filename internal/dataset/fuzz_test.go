package dataset

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// fuzzDataset decodes fuzz bytes into a normalized dataset and a plan.
// entity drives the entity rows (one byte per row: label, home value and
// RIDs); attr drives the attribute tables' sizes, cardinalities and values.
// The plan selector's bits pick the number of attribute tables (bits 0-1,
// mod 3), their closed domains (bits 2-3), and the plan (bits 4-7, see
// fuzzPlan). Column names never collide, so any error is a referential one.
func fuzzDataset(entity, attr []byte, plan uint8) (*Dataset, Plan) {
	next := 0
	attrByte := func() int {
		b := attr[next%len(attr)]
		next++
		return int(b)
	}
	nAttrs := int(plan&3) % 3
	if len(attr) == 0 {
		nAttrs = 0
	}
	nS := len(entity)
	y := make([]int32, nS)
	home := make([]int32, nS)
	for i, b := range entity {
		y[i] = int32(b % 3)
		home[i] = int32(b>>2) % 4
	}
	s := relational.NewTable("S")
	s.MustAddColumn(&relational.Column{Name: "Y", Card: 3, Data: y})
	s.MustAddColumn(&relational.Column{Name: "H", Card: 4, Data: home})
	d := &Dataset{Name: "Fuzz", Entity: s, Target: "Y", HomeFeatures: []string{"H"}}
	for a := 0; a < nAttrs; a++ {
		nR := 1 + attrByte()%24
		r := relational.NewTable("R" + string(rune('0'+a)))
		for j := 0; j < 1+attrByte()%2; j++ {
			card := 1 + attrByte()%8
			data := make([]int32, nR)
			for i := range data {
				data[i] = int32(attrByte() % card)
			}
			r.MustAddColumn(&relational.Column{Name: "A" + string(rune('0'+a)) + string(rune('a'+j)), Card: card, Data: data})
		}
		fk := make([]int32, nS)
		for i, b := range entity {
			fk[i] = int32(int(b)*(a+1)+i) % int32(nR)
		}
		fkName := "FK" + string(rune('0'+a))
		s.MustAddColumn(&relational.Column{Name: fkName, Card: nR, Data: fk})
		d.Attrs = append(d.Attrs, AttributeTable{Table: r, FK: fkName, ClosedDomain: plan&(4<<a) != 0})
	}
	return d, fuzzPlan(d, plan)
}

// fuzzPlan decodes a plan over d's attribute tables from bits 4-7 of
// selector: attribute table a is joined when bit 4+a is set (always, when
// its domain is open), and its closed-domain FK dropped when bit 6+a is.
func fuzzPlan(d *Dataset, selector uint8) Plan {
	var p Plan
	for a, at := range d.Attrs {
		if !at.ClosedDomain || selector&(16<<a) != 0 {
			p.JoinFKs = append(p.JoinFKs, at.FK)
		}
		if at.ClosedDomain && selector&(64<<a) != 0 {
			p.DropFKs = append(p.DropFKs, at.FK)
		}
	}
	return p
}

// FuzzMaterialize checks the production design-matrix paths against the
// generic join oracle on arbitrary schemas and plans: Materialize must fail
// exactly when materializeViaJoin does, must otherwise return the same
// design cell for cell, and must never panic. With at least 4 entity rows
// it also draws a 50/25/25 split from the input: MaterializeSplit must fail
// exactly when Materialize does, and must otherwise return the oracle's
// design through SelectRows of each part, every column capped at its part.
// It then draws a second plan q from the input and views it in the gather
// of the first: Designs(q) must fail when the oracle fails on q or q has a
// column the first plan lacks, and must otherwise return q's oracle design
// the same way.
// corrupt, when nonzero, damages the last attribute table's FK: odd values
// overwrite one RID with corrupt>>1 (which may dangle or be negative), even
// values shift the FK's declared cardinality by corrupt>>1. Run `go test
// -fuzz=FuzzMaterialize ./internal/dataset` to explore beyond the seeds; CI
// runs a short leg on every push.
func FuzzMaterialize(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{3, 1, 4, 1, 5}, uint8(0xfe), int16(0))
	f.Add([]byte{}, []byte{0}, uint8(0x01), int16(0))
	f.Add([]byte{9, 9, 9, 9}, []byte{1, 2}, uint8(0x36), int16(2*40+1))
	f.Add([]byte{255, 0, 127}, []byte{255, 255, 0}, uint8(0x1d), int16(-3))
	f.Add([]byte{7, 8}, []byte{2, 7, 1}, uint8(0x15), int16(4))
	f.Add([]byte{1, 2, 3}, []byte{}, uint8(0x00), int16(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, []byte{2, 7, 1, 8, 2, 8}, uint8(0x3e), int16(0))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13}, []byte{9, 9}, uint8(0x16), int16(2*3+1))
	f.Fuzz(func(t *testing.T, entity, attr []byte, plan uint8, corrupt int16) {
		if len(entity) > 1<<12 || len(attr) > 1<<10 {
			return
		}
		d, p := fuzzDataset(entity, attr, plan)
		if corrupt != 0 && len(d.Attrs) > 0 {
			fk := d.Entity.Column(d.Attrs[len(d.Attrs)-1].FK)
			switch {
			case corrupt&1 == 0:
				fk.Card += int(corrupt >> 1)
			case len(fk.Data) > 0:
				fk.Data[len(attr)%len(fk.Data)] = int32(corrupt >> 1)
			}
		}
		want, wantErr := materializeViaJoin(d, p)
		got, err := d.Materialize(p)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Materialize error %v, join oracle error %v", err, wantErr)
		}
		if err == nil {
			designsEqual(t, want, got)
		}
		if d.NumRows() < 4 {
			return
		}
		h := fnv.New64a()
		h.Write(entity)
		h.Write(attr)
		h.Write([]byte{plan})
		split, serr := DefaultSplit(d.NumRows(), stats.NewRNG(h.Sum64()))
		if serr != nil {
			t.Fatal(serr)
		}
		train, val, test, serr := d.MaterializeSplit(p, split)
		if (serr != nil) != (err != nil) {
			t.Fatalf("MaterializeSplit error %v, Materialize error %v", serr, err)
		}
		if serr != nil {
			return
		}
		checkParts(t, want, split, train, val, test)

		g, err := d.GatherSplit(p, split)
		if err != nil {
			t.Fatal(err)
		}
		q := fuzzPlan(d, uint8(h.Sum64()>>56))
		wantQ, wantErr := materializeViaJoin(d, q)
		train, val, test, err = g.Designs(q)
		if wantErr == nil {
			// Column names never collide, so q's view exists exactly when
			// every name of q's design is one of p's.
			for _, name := range wantQ.FeatureNames() {
				if want.FeatureIndex(name) < 0 {
					wantErr = fmt.Errorf("column %q not gathered", name)
				}
			}
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Designs(%+v) of a %+v gather: error %v, want error %v", q, p, err, wantErr)
		}
		if err == nil {
			checkParts(t, wantQ, split, train, val, test)
		}
	})
}

// checkParts requires train, val and test to equal split.Apply(want) cell
// for cell and in feature metadata, every column capped at its part (so an
// append to one part cannot overwrite the next).
func checkParts(t *testing.T, want *Design, split *Split, train, val, test *Design) {
	t.Helper()
	for k, part := range [][]int{split.Train, split.Validation, split.Test} {
		gotPart := []*Design{train, val, test}[k]
		designsEqual(t, want.SelectRows(part), gotPart)
		if cap(gotPart.Y) != len(gotPart.Y) {
			t.Fatalf("part %d: labels have capacity %d past their %d rows", k, cap(gotPart.Y), len(gotPart.Y))
		}
		for _, ft := range gotPart.Features {
			if cap(ft.Data) != len(ft.Data) {
				t.Fatalf("part %d feature %q: capacity %d past its %d rows", k, ft.Name, cap(ft.Data), len(ft.Data))
			}
		}
	}
}
