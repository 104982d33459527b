package experiments

import (
	"fmt"
	"math"

	"hamlet/internal/biasvar"
	"hamlet/internal/core"
	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// simPoint runs the Monte Carlo bias–variance study for one simulation
// configuration and training size, reporting progress and a per-point child
// span through the budget's observability hooks.
func simPoint(sim synth.SimConfig, nTrain int, b Budget, seed uint64) (map[string]biasvar.Decomp, error) {
	sp := b.Trace.Child(fmt.Sprintf("biasvar(%s, n_S=%d, |D_FK|=%d)", sim.Scenario, nTrain, sim.NR))
	defer sp.End()
	return biasvar.Run(sim, biasvar.Config{
		NTrain:   nTrain,
		NTest:    b.NTest,
		L:        b.L,
		Worlds:   b.Worlds,
		Seed:     seed,
		Workers:  b.Workers,
		Learner:  nb.New(),
		Progress: b.Progress,
		Span:     sp,
	})
}

// A sweep is one panel of a simulation figure: the Monte Carlo study at
// every value of one parameter, the others held at base. Every point of a
// sweep runs under the seed Budget.Seed + seed.
type sweep struct {
	title  string          // the panel's title (a prefix for errorAndNetVariance)
	param  param           // the swept parameter
	seed   uint64          // offset added to Budget.Seed
	base   synth.SimConfig // the configuration, but for the swept field
	nS     int             // the training size, unless param is paramNS
	values []float64       // the swept values, one table row each, in order
}

// A param is a swept simulation parameter: its column header, the format of
// its cells, and where a value goes (a configuration field or n_S).
type param struct {
	name   string
	format string
	set    func(sim *synth.SimConfig, nS *int, v float64)
}

var (
	paramNS     = param{"n_S", "%.0f", func(_ *synth.SimConfig, nS *int, v float64) { *nS = int(v) }}
	paramFK     = param{"|D_FK|", "%.0f", func(s *synth.SimConfig, _ *int, v float64) { s.NR = int(v) }}
	paramDR     = param{"d_R", "%.0f", func(s *synth.SimConfig, _ *int, v float64) { s.DR = int(v) }}
	paramDS     = param{"d_S", "%.0f", func(s *synth.SimConfig, _ *int, v float64) { s.DS = int(v) }}
	paramP      = param{"p", "%.2f", func(s *synth.SimConfig, _ *int, v float64) { s.P = v }}
	paramZipf   = param{"zipf_s", "%.1f", func(s *synth.SimConfig, _ *int, v float64) { s.ZipfS = v }}
	paramNeedle = param{"needle_p", "%.1f", func(s *synth.SimConfig, _ *int, v float64) { s.NeedleP = v }}
)

// The swept values shared by several panels. nsValues × fkValues is also
// the configuration grid of Figures 1, 4 and 12 (gridScatter).
var (
	nsValues     = []float64{100, 200, 400, 1000, 2000, 4000}
	fkValues     = []float64{10, 25, 50, 100, 200, 400}
	dRValues     = []float64{1, 2, 4, 8, 16}
	dSValues     = []float64{0, 2, 4, 8, 16}
	skewNSValues = []float64{250, 500, 1000, 2000, 4000}
)

// The panels of the sweep figures, in table order. Fields: title, param,
// seed offset, base configuration, n_S, values.
var (
	fig3Sweeps = []sweep{
		{"Figure 3(A)", paramNS, 0, synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}, 0, nsValues},
		{"Figure 3(B)", paramFK, 1, synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, P: 0.1}, 1000, fkValues},
	}
	fig10Sweeps = []sweep{
		{"Figure 10(A)", paramDR, 2, synth.SimConfig{Scenario: synth.OneXr, DS: 4, NR: 100, P: 0.1}, 1000, dRValues},
		{"Figure 10(B)", paramDS, 3, synth.SimConfig{Scenario: synth.OneXr, DR: 4, NR: 40, P: 0.1}, 1000, dSValues},
		{"Figure 10(C)", paramP, 4, synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 200}, 1000, []float64{0.05, 0.1, 0.2, 0.3, 0.4}},
	}
	fig11Sweeps = []sweep{
		{"Figure 11(A)", paramNS, 5, synth.SimConfig{Scenario: synth.AllXsXr, DS: 4, DR: 4, NR: 40, P: 0.1}, 0, nsValues},
		{"Figure 11(B)", paramFK, 6, synth.SimConfig{Scenario: synth.AllXsXr, DS: 4, DR: 4, P: 0.1}, 1000, fkValues},
		{"Figure 11(C)", paramDR, 7, synth.SimConfig{Scenario: synth.AllXsXr, DS: 4, NR: 100, P: 0.1}, 1000, dRValues},
		{"Figure 11(D)", paramDS, 8, synth.SimConfig{Scenario: synth.AllXsXr, DR: 4, NR: 40, P: 0.1}, 1000, dSValues},
	}
	fig13Sweeps = []sweep{
		{"Figure 13(A1): benign Zipf skew, vary skew parameter", paramZipf, 12,
			synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 40, P: 0.1, Skew: synth.ZipfSkew}, 1000, []float64{0, 1, 2, 4}},
		{"Figure 13(A2): benign Zipf skew (s=2), vary n_S", paramNS, 13,
			synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 40, P: 0.1, Skew: synth.ZipfSkew, ZipfS: 2}, 0, skewNSValues},
		{"Figure 13(B1): malign needle-and-thread skew, vary needle probability", paramNeedle, 14,
			synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 40, P: 0.1, Skew: synth.NeedleThreadSkew}, 1000, []float64{0.1, 0.3, 0.5, 0.7, 0.9}},
		{"Figure 13(B2): malign skew (needle=0.5), vary n_S", paramNS, 15,
			synth.SimConfig{Scenario: synth.OneXr, DS: 4, DR: 4, NR: 40, P: 0.1, Skew: synth.NeedleThreadSkew, NeedleP: 0.5}, 0, skewNSValues},
	}
	xsfkSweeps = []sweep{
		{"Scenario XsFkOnly", paramNS, 130, synth.SimConfig{Scenario: synth.XsFkOnly, DS: 2, DR: 4, NR: 40, P: 0.1}, 0, nsValues},
	}
)

// A layout turns a sweep into its tables: it returns them empty, with the
// function that adds one point's row from the swept value's cell and the
// point's decompositions.
type layout func(s sweep) ([]*Table, func(x string, out map[string]biasvar.Decomp))

// runSweeps validates the budget and runs every point of every sweep, in
// order, through simPoint, into the tables lay gives each sweep.
func runSweeps(id string, b Budget, lay layout, sweeps []sweep) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	res := &Result{ID: id}
	for _, s := range sweeps {
		tables, add := lay(s)
		for _, v := range s.values {
			sim, nS := s.base, s.nS
			s.param.set(&sim, &nS, v)
			out, err := simPoint(sim, nS, b, b.Seed+s.seed)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf(s.param.format, v), out)
		}
		res.Tables = append(res.Tables, tables...)
	}
	return res, nil
}

// errorAndNetVariance lays a sweep out as two tables: the average test
// error and the average net variance of UseAll, NoJoin and NoFK against the
// swept value.
func errorAndNetVariance(s sweep) ([]*Table, func(string, map[string]biasvar.Decomp)) {
	cols := []string{s.param.name, "UseAll", "NoJoin", "NoFK"}
	errT := &Table{Title: s.title + ": average test error vs " + s.param.name, Columns: cols}
	nvT := &Table{Title: s.title + ": average net variance vs " + s.param.name, Columns: cols}
	return []*Table{errT, nvT}, func(x string, out map[string]biasvar.Decomp) {
		errT.Add(x, f(out["UseAll"].TestError), f(out["NoJoin"].TestError), f(out["NoFK"].TestError))
		nvT.Add(x, f(out["UseAll"].NetVariance), f(out["NoJoin"].NetVariance), f(out["NoFK"].NetVariance))
	}
}

// joinGap lays a sweep out as one table of UseAll's and NoJoin's test
// errors and their difference; Figure 13 compares only these two.
func joinGap(s sweep) ([]*Table, func(string, map[string]biasvar.Decomp)) {
	t := &Table{Title: s.title, Columns: []string{s.param.name, "UseAll", "NoJoin", "dErr"}}
	return []*Table{t}, func(x string, out map[string]biasvar.Decomp) {
		t.Add(x, f(out["UseAll"].TestError), f(out["NoJoin"].TestError),
			f(out["NoJoin"].TestError-out["UseAll"].TestError))
	}
}

// RunFig3 regenerates Figure 3: scenario OneXr, test error and net variance
// (A) against n_S with (d_S, d_R, |D_FK|) = (2, 4, 40) and (B) against
// |D_FK| with (n_S, d_S, d_R) = (1000, 4, 4).
func RunFig3(b Budget) (*Result, error) {
	return runSweeps("fig3", b, errorAndNetVariance, fig3Sweeps)
}

// RunFig10 regenerates Figure 10: scenario OneXr under the remaining
// parameter sweeps — (A) d_R with (n_S, d_S, |D_FK|, p) = (1000, 4, 100,
// 0.1), (B) d_S with (n_S, d_R, |D_FK|, p) = (1000, 4, 40, 0.1), and (C) p
// with (n_S, d_S, d_R, |D_FK|) = (1000, 4, 4, 200).
func RunFig10(b Budget) (*Result, error) {
	return runSweeps("fig10", b, errorAndNetVariance, fig10Sweeps)
}

// RunFig11 regenerates Figure 11: scenario AllXsXr under sweeps of n_S,
// |D_FK|, d_R, and d_S.
func RunFig11(b Budget) (*Result, error) {
	return runSweeps("fig11", b, errorAndNetVariance, fig11Sweeps)
}

// gridPoint is one configuration of the n_S × |D_FK| grid with its ROR
// (q_R* = 2), its TR and its simulated ΔErr, NoJoin's test error minus
// UseAll's.
type gridPoint struct {
	nS, nR int
	core.ScatterPoint
}

// gridScatter runs the configuration grid behind Figures 1, 4 and 12: the
// scenario at d_S = 2, d_R = 4 and p = 0.1 over nsValues × fkValues,
// n_S-major, skipping degenerate points. Point (n_S, |D_FK|) runs through
// simPoint under the seed seedOf(n_S, |D_FK|).
func gridScatter(scenario synth.Scenario, b Budget, seedOf func(nS, nR int) uint64) ([]gridPoint, error) {
	var points []gridPoint
	for _, x := range nsValues {
		for _, y := range fkValues {
			nS, nR := int(x), int(y)
			if nR*4 >= nS {
				continue // keep TR > 4 so NB has a few examples per FK value
			}
			sim := synth.SimConfig{Scenario: scenario, DS: 2, DR: 4, NR: nR, P: 0.1}
			out, err := simPoint(sim, nS, b, seedOf(nS, nR))
			if err != nil {
				return nil, err
			}
			ror, err := core.ROR(nS, nR, 2, core.DefaultDelta)
			if err != nil {
				return nil, err
			}
			tr, err := core.TupleRatio(nS, nR)
			if err != nil {
				return nil, err
			}
			dErr := out["NoJoin"].TestError - out["UseAll"].TestError
			points = append(points, gridPoint{nS, nR, core.ScatterPoint{ROR: ror, TR: tr, DeltaError: dErr}})
		}
	}
	return points, nil
}

// scatterStudy renders Figure 4 or 12 for the scenario: the grid's scatter
// table (point (n_S, |D_FK|) under seed Budget.Seed + seed + 7·n_S + |D_FK|)
// and its summary.
func scatterStudy(id string, scenario synth.Scenario, b Budget, seed uint64) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	points, err := gridScatter(scenario, b, func(nS, nR int) uint64 { return b.Seed + seed + uint64(nS*7+nR) })
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "scatter: ΔTest error vs ROR and TR (" + scenario.String() + ")",
		Columns: []string{"n_S", "|D_FK|", "ROR", "TR", "1/sqrt(TR)", "dErr"},
	}
	for _, p := range points {
		t.Add(d(p.nS), d(p.nR), f(p.ROR), f(p.TR), f(1/math.Sqrt(p.TR)), f(p.DeltaError))
	}
	return &Result{ID: id, Tables: []*Table{t, scatterSummary(points)}}, nil
}

// scatterSummary derives the Figure 4(C)-style summary: the ROR↔1/√TR
// Pearson coefficient and thresholds tuned at both paper tolerances.
func scatterSummary(grid []gridPoint) *Table {
	t := &Table{Title: "scatter summary: ROR↔TR relationship and tuned thresholds",
		Columns: []string{"quantity", "value"}}
	var rors, inv []float64
	var points []core.ScatterPoint
	for _, p := range grid {
		rors = append(rors, p.ROR)
		inv = append(inv, 1/math.Sqrt(p.TR))
		points = append(points, p.ScatterPoint)
	}
	t.Add("Pearson(ROR, 1/sqrt(TR))", f(stats.Pearson(rors, inv)))
	for _, tol := range []float64{0.001, 0.01} {
		th, err := core.TuneThresholds(points, tol)
		if err != nil {
			t.Add(fmt.Sprintf("thresholds@%.3f", tol), "untunable: "+err.Error())
			continue
		}
		t.Add(fmt.Sprintf("rho@%.3f", tol), f(th.Rho))
		t.Add(fmt.Sprintf("tau@%.3f", tol), f(th.Tau))
	}
	return t
}

// RunFig4 regenerates Figure 4: the OneXr scatter of ΔTest error against
// ROR and TR, and the ROR↔1/√TR linearity summary with tuned thresholds.
func RunFig4(b Budget) (*Result, error) {
	return scatterStudy("fig4", synth.OneXr, b, 10)
}

// RunFig12 regenerates Figure 12: the same scatter study for the AllXsXr
// scenario, verifying that the same thresholds remain valid.
func RunFig12(b Budget) (*Result, error) {
	return scatterStudy("fig12", synth.AllXsXr, b, 11)
}

// RunFig13 regenerates Figure 13 (Appendix D): foreign-key skew. (A) benign
// Zipf skew — A1 varies the Zipf parameter at n_S = 1000, A2 varies n_S at
// parameter 2; (B) malign needle-and-thread skew — B1 varies the needle
// probability at n_S = 1000, B2 varies n_S at probability 0.5. Only UseAll
// and NoJoin are compared, as in the paper.
func RunFig13(b Budget) (*Result, error) {
	return runSweeps("fig13", b, joinGap, fig13Sweeps)
}
