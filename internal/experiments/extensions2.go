package experiments

import (
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// RunColdStart measures the §2.1 cold-start mechanism: models are trained on
// a dataset whose attribute table carries a reserved Others record, then
// evaluated on serving data in which a growing fraction of foreign keys
// reference RIDs unseen at training time (remapped to Others). The baseline
// "clamp" strategy — map unseen RIDs to an arbitrary existing one — shows
// why a dedicated placeholder matters as drift grows.
func RunColdStart(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Extension: cold-start — Others record vs clamping unseen FKs",
		Columns: []string{"unseenFrac", "errOthers", "errClamp", "errNoDrift"}}
	sim := synth.SimConfig{Scenario: synth.XsFkOnly, DS: 2, DR: 2, NR: 50, P: 0.1}
	rng := stats.NewRNG(b.Seed + 170)
	world, err := synth.NewWorld(sim, rng.Uint64())
	if err != nil {
		return nil, err
	}
	const nTrain = 4000
	ds, err := world.Dataset("cold", nTrain, rng.Split())
	if err != nil {
		return nil, err
	}
	if err := dataset.AddOthersRecord(ds, "FK"); err != nil {
		return nil, err
	}
	others := dataset.OthersRID(ds.Attrs[0].Table)
	design, err := ds.Materialize(ds.NoJoinsPlan())
	if err != nil {
		return nil, err
	}
	feats := make([]int, design.NumFeatures())
	for i := range feats {
		feats[i] = i
	}
	mod, err := nb.New().Fit(design, feats)
	if err != nil {
		return nil, err
	}
	metric := ml.MetricFor(2)
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		// Serving data from the same world; a fraction of rows get RIDs
		// outside the training domain.
		test := world.Sample(b.NTest, rng.Split())
		fkIdx := test.FeatureIndex("FK")
		unseen := append([]int32(nil), test.Features[fkIdx].Data...)
		for i := range unseen {
			if rng.Float64() < frac {
				unseen[i] = int32(sim.NR) + int32(rng.IntN(10)) // brand-new RIDs
			}
		}
		mk := func(handle func([]int32)) *dataset.Design {
			cp := test.Subset(feats) // same columns, shared storage
			fks := append([]int32(nil), unseen...)
			handle(fks)
			out := &dataset.Design{NumClasses: 2, Y: test.Y}
			out.Features = append([]dataset.Feature(nil), cp.Features...)
			f := out.Features[fkIdx]
			f.Data = fks
			f.Card = int(others) + 1
			out.Features[fkIdx] = f
			return out
		}
		withOthers := mk(func(fks []int32) { dataset.MapUnseenRIDs(fks, others) })
		clamped := mk(func(fks []int32) {
			for i, v := range fks {
				if v >= int32(sim.NR) {
					fks[i] = 0 // arbitrary existing RID
				}
			}
		})
		clean := mk(func(fks []int32) {
			copy(fks, test.Features[fkIdx].Data)
		})
		t.Add(f(frac),
			f(metric(ml.PredictAll(mod, withOthers), test.Y)),
			f(metric(ml.PredictAll(mod, clamped), test.Y)),
			f(metric(ml.PredictAll(mod, clean), test.Y)))
	}
	return &Result{ID: "coldstart", Tables: []*Table{t}}, nil
}

// RunCV is the §2.2 holdout-vs-cross-validation ablation: forward selection
// under the paper's holdout protocol versus 5-fold cross-validation on the
// dataset mimics, comparing final test error and subset-evaluation counts
// (CV pays k× per evaluation).
func RunCV(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Extension: holdout vs 5-fold CV wrapper search (forward selection, JoinOpt)",
		Columns: []string{"Dataset", "Metric", "errHoldout", "errCV", "evalsHoldout", "evalsCV"}}
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+180+uint64(si))
		if err != nil {
			return nil, err
		}
		plan, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		hold, err := p.runFS(plan, fs.Forward{})
		if err != nil {
			return nil, err
		}
		cv, err := p.runFS(plan, fs.CrossValidated{Inner: fs.Forward{}, K: 5, Seed: b.Seed})
		if err != nil {
			return nil, err
		}
		t.Add(spec.Name, ml.MetricName(spec.Classes),
			f(hold.TestError), f(cv.TestError), d(hold.Evaluations), d(cv.Evaluations))
	}
	return &Result{ID: "cv", Tables: []*Table{t}}, nil
}
