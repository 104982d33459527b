package hamlet

import (
	"reflect"
	"testing"

	"hamlet/internal/experiments"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// mimicGather generates mimic si at scale 0.01 and gathers its JoinAll
// columns over a split drawn from seed.
func mimicGather(t *testing.T, si int, seed uint64) (*Dataset, *Split, *SplitGather) {
	t.Helper()
	d, err := Mimics()[si].Generate(0.01, seed)
	if err != nil {
		t.Fatal(err)
	}
	split, err := DefaultSplit(d.NumRows(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.GatherSplit(d.JoinAllPlan(), split)
	if err != nil {
		t.Fatal(err)
	}
	return d, split, g
}

// TestGatherViewsMatchMaterialize holds every mimic's JoinAll gather to the
// two-step path: for JoinAll, JoinOpt, NoJoins, JoinAllNoFK and random
// plans, Designs(q) equals Materialize(q) then Split.Apply, cell for cell
// and in feature metadata, with every view column capped at its part.
func TestGatherViewsMatchMaterialize(t *testing.T) {
	rng := stats.NewRNG(9)
	for si, spec := range Mimics() {
		d, split, g := mimicGather(t, si, uint64(30+si))
		opt, _, err := NewAdvisor().JoinOptPlan(d)
		if err != nil {
			t.Fatal(err)
		}
		plans := []Plan{d.JoinAllPlan(), opt, d.NoJoinsPlan(), d.JoinAllNoFKPlan()}
		for i := 0; i < 4; i++ {
			var p Plan
			for _, at := range d.Attrs {
				if rng.IntN(2) == 0 {
					p.JoinFKs = append(p.JoinFKs, at.FK)
				}
				if at.ClosedDomain && rng.IntN(3) == 0 {
					p.DropFKs = append(p.DropFKs, at.FK)
				}
			}
			plans = append(plans, p)
		}
		for _, q := range plans {
			m, err := d.Materialize(q)
			if err != nil {
				t.Fatal(err)
			}
			train, val, test, err := g.Designs(q)
			if err != nil {
				t.Fatalf("%s %+v: %v", spec.Name, q, err)
			}
			wantTrain, wantVal, wantTest := split.Apply(m)
			for k, pair := range [][2]*Design{{wantTrain, train}, {wantVal, val}, {wantTest, test}} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s %+v part %d: view differs from Materialize + Apply", spec.Name, q, k)
				}
				for _, ft := range pair[1].Features {
					if cap(ft.Data) != len(ft.Data) {
						t.Fatalf("%s %+v part %d: feature %q not capped", spec.Name, q, k, ft.Name)
					}
				}
			}
		}
	}
}

// TestEvaluationLeavesGatherIntact: every plan of a split views one gather,
// so JoinOpt's columns alias JoinAll's and no evaluation step may write to
// a design column. After the evaluations of an Analyze and of a Figure 7
// mimic (its four methods over both plans), Figure 9's embedded selectors
// and the TAN table's two learners, every gathered column and the labels
// still hold the bytes they were gathered with.
func TestEvaluationLeavesGatherIntact(t *testing.T) {
	methods := append(experiments.Methods(), EmbeddedL1(), EmbeddedL2())
	for si, spec := range Mimics() {
		d, _, g := mimicGather(t, si, uint64(50+si))
		opt, _, err := NewAdvisor().JoinOptPlan(d)
		if err != nil {
			t.Fatal(err)
		}
		train, val, test, err := g.Designs(d.JoinAllPlan())
		if err != nil {
			t.Fatal(err)
		}
		var before [][]int32
		for _, m := range []*Design{train, val, test} {
			before = append(before, append([]int32(nil), m.Y...))
			for _, ft := range m.Features {
				before = append(before, append([]int32(nil), ft.Data...))
			}
		}
		for _, method := range methods {
			for _, p := range []Plan{d.JoinAllPlan(), opt} {
				if _, err := fs.EvaluatePlan(g, p, method, nil); err != nil {
					t.Fatalf("%s %s: %v", spec.Name, method.Name(), err)
				}
			}
		}
		all := make([]int, train.NumFeatures())
		for i := range all {
			all[i] = i
		}
		for _, l := range []Learner{NaiveBayes(), TAN()} {
			if _, err := ml.Evaluate(l, train, test, all); err != nil {
				t.Fatalf("%s %s: %v", spec.Name, l.Name(), err)
			}
		}
		i := 0
		for _, m := range []*Design{train, val, test} {
			cols := [][]int32{m.Y}
			for _, ft := range m.Features {
				cols = append(cols, ft.Data)
			}
			for _, col := range cols {
				if !reflect.DeepEqual(col, before[i]) {
					t.Fatalf("%s: gathered column %d changed during evaluation", spec.Name, i)
				}
				i++
			}
		}
	}
}
