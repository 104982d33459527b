package hamlet

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// executes the full runner that regenerates that artifact at the Quick
// budget — see internal/experiments and EXPERIMENTS.md), plus
// micro-benchmarks for the substrate operations whose costs drive the
// paper's runtime results (Monte Carlo world sampling, KFK joins, Naive
// Bayes fitting, prediction and subset scoring, MI/IGR scoring, greedy
// selection steps, one hamlet.Analyze call, logistic regression epochs, and
// the decision rules themselves).
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig7 -benchtime=1x   # one full fig7 regeneration

import (
	"fmt"
	"testing"

	"hamlet/internal/biasvar"
	"hamlet/internal/dataset"
	"hamlet/internal/experiments"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
	"hamlet/internal/ml/nb"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// benchBudget keeps figure regenerations affordable under -bench.
var benchBudget = experiments.Budget{Worlds: 2, L: 6, NTest: 200, MimicScale: 0.02, Seed: 1}

func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig3(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8A(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFig8B(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFig8C(b *testing.B) { benchFigure(b, "fig8c") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkTAN(b *testing.B)   { benchFigure(b, "tan") }

// Monte Carlo engine scaling: Figure 3(A)'s OneXr point at n_S = 1000 at a
// deep budget (8 worlds × 24 training samples of 1,000 rows, each scored
// under three model classes) at fixed worker counts. The decompositions are
// bitwise-identical across the sub-benchmarks — only wall time moves — so
// the ratio between workers=1 and workers=N is the engine's parallel
// speedup on this machine (near-linear up to GOMAXPROCS; on a single-core
// runner all counts collapse to the serial time).
func BenchmarkMonteCarloWorkers(b *testing.B) {
	sim := synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := biasvar.Run(sim, biasvar.Config{
					NTrain: 1000, NTest: 500, L: 24, Worlds: 8, Seed: 1,
					Workers: workers, Learner: nb.New(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != 3 {
					b.Fatalf("want 3 model classes, got %d", len(out))
				}
			}
		})
	}
}

// BenchmarkMonteCarloWideFK is BenchmarkMonteCarloWorkers' budget at the
// point where a world's test rows seldom repeat: d_S = 4 and n_R = 5,000
// give 80,000 possible rows, so nearly all 500 test rows are distinct and
// scoring each distinct row once saves almost nothing. On one worker it
// shows what compacting the test set costs when it cannot help.
func BenchmarkMonteCarloWideFK(b *testing.B) {
	sim := synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 5000, P: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := biasvar.Run(sim, biasvar.Config{
			NTrain: 1000, NTest: 500, L: 24, Worlds: 8, Seed: 1,
			Workers: 1, Learner: nb.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 3 {
			b.Fatalf("want 3 model classes, got %d", len(out))
		}
	}
}

// Substrate micro-benchmarks.

// BenchmarkWorldSample measures one Monte Carlo trial's training draw on its
// own layer: 1,000 labeled rows redrawn into a reused design, at the
// montecarlo workload's OneXr point (n_R = 40, FK from the marginal's guide
// table), a Figure 11 AllXsXr point (FK from the per-majority tables) and
// an XsFkOnly point (FK's latent label), all under uniform FKs, plus the
// OneXr point under Appendix D's Zipf (s = 2) and needle-and-thread
// (p = 0.5) skews, whose guide buckets hold uneven numbers of cumulative
// weights. A trial allocates nothing here.
func BenchmarkWorldSample(b *testing.B) {
	benchWorlds(b, func(w *synth.World, rng *stats.RNG) func() {
		m := w.Sample(1000, rng)
		return func() { m = w.SampleInto(m, 1000, rng) }
	})
}

// BenchmarkWorldTally is BenchmarkWorldSample's draws tallied into reused
// Naive Bayes count tables instead of stored, as a Naive Bayes trial takes
// them: the same words, no design, and X_R's counts summed from FK's
// through R (2·n_R = 80 ≤ 1,000 rows).
func BenchmarkWorldTally(b *testing.B) {
	benchWorlds(b, func(w *synth.World, rng *stats.RNG) func() {
		s := w.TallyInto(nil, 1000, rng)
		return func() { s = w.TallyInto(s, 1000, rng) }
	})
}

// benchWorlds runs one sub-benchmark per world shape of
// BenchmarkWorldSample, timing the draw that setup returns.
func benchWorlds(b *testing.B, setup func(*synth.World, *stats.RNG) func()) {
	oneXr := synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}
	zipf, needle := oneXr, oneXr
	zipf.Skew, zipf.ZipfS = synth.ZipfSkew, 2
	needle.Skew, needle.NeedleP = synth.NeedleThreadSkew, 0.5
	for _, sim := range []synth.SimConfig{
		oneXr,
		{Scenario: synth.AllXsXr, DS: 4, DR: 4, NR: 40, P: 0.1},
		{Scenario: synth.XsFkOnly, DS: 4, DR: 4, NR: 40, P: 0.1},
		zipf,
		needle,
	} {
		name := sim.Scenario.String()
		if sim.Skew != synth.NoSkew {
			name += "/" + sim.Skew.String()
		}
		b.Run(name, func(b *testing.B) {
			w, err := synth.NewWorld(sim, 1)
			if err != nil {
				b.Fatal(err)
			}
			draw := setup(w, stats.NewRNG(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				draw()
			}
		})
	}
}

func benchWorldDesign(n int) *dataset.Design {
	w, err := synth.NewWorld(synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 100, P: 0.1}, 1)
	if err != nil {
		panic(err)
	}
	return w.Sample(n, stats.NewRNG(2))
}

// BenchmarkKFKJoin measures materializing a KFK equi-join of a 100k-row
// entity table with a 1k-row attribute table of 8 features.
func BenchmarkKFKJoin(b *testing.B) {
	rng := stats.NewRNG(3)
	const nR, nS, dR = 1000, 100000, 8
	r := relational.NewTable("R")
	for j := 0; j < dR; j++ {
		data := make([]int32, nR)
		for i := range data {
			data[i] = int32(rng.IntN(10))
		}
		r.MustAddColumn(&relational.Column{Name: "F" + string(rune('a'+j)), Card: 10, Data: data})
	}
	s := relational.NewTable("S")
	fk := make([]int32, nS)
	for i := range fk {
		fk[i] = int32(rng.IntN(nR))
	}
	s.MustAddColumn(&relational.Column{Name: "FK", Card: nR, Data: fk})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relational.Join(s, "FK", r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBFit measures tabulating Naive Bayes sufficient statistics over
// a 50k-row, 9-feature design.
func BenchmarkNBFit(b *testing.B) {
	m := benchWorldDesign(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.NewStats(m)
	}
}

// BenchmarkNBPredict measures full-design prediction with a 9-feature model.
func BenchmarkNBPredict(b *testing.B) {
	m := benchWorldDesign(50000)
	feats := make([]int, m.NumFeatures())
	for i := range feats {
		feats[i] = i
	}
	mod, err := nb.New().Fit(m, feats)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.PredictAll(mod, m)
	}
}

// BenchmarkNBSubsetScore measures the wrapper-search fast path: scoring one
// forward-selection candidate (current+f) over a 50k-row design from kept
// prefix scores, one table lookup and addition per (row, class) whatever
// the subset's size. The design is the Monte Carlo world's, so binary.
func BenchmarkNBSubsetScore(b *testing.B) {
	benchSubsetScore(b, benchWorldDesign(50000))
}

// BenchmarkNBSubsetScore5Classes is BenchmarkNBSubsetScore on a 5-class
// design of the same row count, the MovieLens1M mimic's JoinAll design, so
// it times the scorer's multi-class pick.
func BenchmarkNBSubsetScore5Classes(b *testing.B) {
	spec, err := synth.MimicByName("MovieLens1M")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := spec.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ds.Materialize(ds.JoinAllPlan())
	if err != nil {
		b.Fatal(err)
	}
	benchSubsetScore(b, m)
}

// benchSubsetScore times SubsetScorer.Predict on m for the candidates
// {0, 2, f}, f >= 3, after scoring their prefix {0, 2}.
func benchSubsetScore(b *testing.B, m *dataset.Design) {
	sc := nb.NewSubsetScorer(nb.NewStats(m), 1, m)
	var cands [][]int
	for f := 3; f < m.NumFeatures(); f++ {
		cands = append(cands, []int{0, 2, f})
	}
	if _, err := sc.Predict([]int{0, 2}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Predict(cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutualInformation measures I(F;Y) over 100k rows.
func BenchmarkMutualInformation(b *testing.B) {
	rng := stats.NewRNG(5)
	n := 100000
	f := make([]int32, n)
	y := make([]int32, n)
	for i := 0; i < n; i++ {
		f[i] = int32(rng.IntN(50))
		y[i] = int32(rng.IntN(5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MutualInformation(f, 50, y, 5)
	}
}

// BenchmarkForwardSelection measures one full greedy forward search with the
// Naive Bayes fast path over 9 candidate features.
func BenchmarkForwardSelection(b *testing.B) {
	m := benchWorldDesign(20000)
	idx := make([]int, m.NumRows())
	for i := range idx {
		idx[i] = i
	}
	train := m.SelectRows(idx[:10000])
	val := m.SelectRows(idx[10000:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (fs.Forward{}).Select(nb.New(), train, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the analyze workload's operation, one
// hamlet.Analyze call (advisor, one JoinAll gather over the split, then
// JoinAll and JoinOpt each viewed in it, selected on and tested), per
// sub-benchmark's method on a binary mimic (Expedia) and a 5-class one
// (MovieLens1M) at the workload's scale.
func BenchmarkAnalyze(b *testing.B) {
	var inputs []*Dataset
	for _, name := range []string{"Expedia", "MovieLens1M"} {
		spec, err := synth.MimicByName(name)
		if err != nil {
			b.Fatal(err)
		}
		d, err := spec.Generate(0.02, 1)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, d)
	}
	for _, m := range []struct {
		name string
		sel  FeatureSelector
	}{{"forward", ForwardSelection()}, {"mi", MIFilter()}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range inputs {
					if _, err := Analyze(d, m.sel, nil, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkGatherSplit measures the gather alone at the analyze workload's
// shape: one op gathers JoinAll over the 50/25/25 split of each of 28
// datasets, every mimic at scale 0.02 under 4 generation seeds.
func BenchmarkGatherSplit(b *testing.B) {
	type input struct {
		d     *Dataset
		split *Split
	}
	var inputs []input
	for _, spec := range synth.Mimics() {
		for seed := uint64(1); seed <= 4; seed++ {
			d, err := spec.Generate(0.02, seed)
			if err != nil {
				b.Fatal(err)
			}
			split, err := DefaultSplit(d.NumRows(), seed)
			if err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, input{d, split})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := in.d.GatherSplit(in.d.JoinAllPlan(), in.split); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLogregEpochs measures training L1 softmax regression (20 epochs)
// on 10k rows with a 100-value FK among the features.
func BenchmarkLogregEpochs(b *testing.B) {
	m := benchWorldDesign(10000)
	feats := make([]int, m.NumFeatures())
	for i := range feats {
		feats[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logreg.New(logreg.L1).Fit(m, feats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROR measures the decision-rule evaluation itself — the paper's
// point is that this is effectively free compared to feature selection.
func BenchmarkROR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ROR(500000, 50000, 2, DefaultDelta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvisor measures a full advisor pass over a generated mimic.
func BenchmarkAdvisor(b *testing.B) {
	spec, err := synth.MimicByName("Yelp")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := spec.Generate(0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	adv := NewAdvisor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adv.Decide(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBFactorized measures factorized Naive Bayes training over a
// normalized mimic — sufficient statistics without materializing the join
// (companion-work [29] optimization; compare BenchmarkNBMaterialized).
func BenchmarkNBFactorized(b *testing.B) {
	spec, err := synth.MimicByName("Yelp")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := spec.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nb.StatsFromDataset(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBMaterialized measures the join-then-count baseline on the same
// mimic: materialize JoinAll, then tabulate statistics.
func BenchmarkNBMaterialized(b *testing.B) {
	spec, err := synth.MimicByName("Yelp")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := spec.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		design, err := ds.Materialize(ds.JoinAllPlan())
		if err != nil {
			b.Fatal(err)
		}
		nb.NewStats(design)
	}
}

// BenchmarkMimicGenerate measures generating the largest mimic at 2% scale.
func BenchmarkMimicGenerate(b *testing.B) {
	spec, err := synth.MimicByName("MovieLens1M")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Generate(0.02, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
