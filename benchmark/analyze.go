package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"hamlet"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/synth"
)

// analyzeScale is the mimic scale the analyze workload runs at (entity
// tables are clamped up to synth.MinEntityRows).
const analyzeScale = 0.02

// analyzeSizes fixes the inputs of the analyze workload.
type analyzeSizes struct {
	mimics []string // nil means all seven
	// dataSeeds is how many generations of each mimic one pass analyzes.
	// Forward selection's cost depends on the data, so a pass averages over
	// several generations to keep the per-seed spread small.
	dataSeeds int
	minPasses int
	setupReps int
}

// methods are the two selectors every dataset is analyzed under, by the
// short name the per-layer metrics use.
var methods = []struct {
	tag string
	sel hamlet.FeatureSelector
}{
	{"forward", hamlet.ForwardSelection()},
	{"mi", hamlet.MIFilter()},
}

// paperAvoided is the §5 avoid/keep table under the TR rule: the attribute
// tables each mimic's advisor avoids, 7 in all. Expedia's Searches has an
// open domain and is never considered.
var paperAvoided = map[string][]string{
	"Walmart":      {"Indicators", "Stores"},
	"Expedia":      {"Hotels"},
	"Flights":      {"Airlines"},
	"Yelp":         {},
	"MovieLens1M":  {"Movies", "Users"},
	"LastFM":       {"Artists"},
	"BookCrossing": {},
}

//go:embed testdata/analyze_seed1.golden.json
var analyzeGolden []byte

// analysisOutput is what one Analyze call decided and produced; the golden
// file is a list of them.
type analysisOutput struct {
	Dataset  string     `json:"dataset"`
	DataSeed uint64     `json:"data_seed"`
	Method   string     `json:"method"`
	Avoided  []string   `json:"avoided"`
	JoinAll  planOutput `json:"join_all"`
	JoinOpt  planOutput `json:"join_opt"`
}

type planOutput struct {
	InputFeatures int      `json:"input_features"`
	Selected      []string `json:"selected"`
	Evaluations   int      `json:"evaluations"`
	TestError     float64  `json:"test_error"`
}

func (o analysisOutput) key() string {
	return fmt.Sprintf("%s/%d/%s", o.Dataset, o.DataSeed, o.Method)
}

var fullAnalyze = analyzeSizes{dataSeeds: 4, minPasses: 1, setupReps: 25}

func analyzeWorkload(full analyzeSizes) func(runCfg) (*phase, error) {
	return func(cfg runCfg) (*phase, error) {
		sz := full
		if cfg.toy {
			sz = analyzeSizes{mimics: []string{"Flights", "BookCrossing"}, dataSeeds: 1, minPasses: 2, setupReps: 1}
		}
		return runAnalyze(cfg, sz)
	}
}

// analyzeInput is one generated dataset.
type analyzeInput struct {
	d    *hamlet.Dataset
	seed uint64
}

// dataSeeds draws the generation seeds of the analyze inputs.
func dataSeeds(seed uint64, n int) []uint64 {
	rng := inputRNG(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = drawSeed(rng)
	}
	return seeds
}

func generateInputs(sz analyzeSizes, seeds []uint64) ([]analyzeInput, error) {
	var in []analyzeInput
	for _, spec := range synth.Mimics() {
		if sz.mimics != nil && !slices.Contains(sz.mimics, spec.Name) {
			continue
		}
		for _, s := range seeds {
			d, err := spec.Generate(analyzeScale, s)
			if err != nil {
				return nil, err
			}
			in = append(in, analyzeInput{d, s})
		}
	}
	return in, nil
}

// runAnalyze runs one analyze phase: one caller analyzes every input under
// both methods per pass, for whole passes until the window has passed.
func runAnalyze(cfg runCfg, sz analyzeSizes) (*phase, error) {
	ph := newPhase()
	seeds := dataSeeds(cfg.seed, sz.dataSeeds)
	var inputs []analyzeInput
	for rep := 0; rep < sz.setupReps; rep++ {
		// Drop the previous repetition's datasets first, so repetitions do
		// not stack in memory.
		inputs = nil
		heapAfterGC()
		t0 := time.Now()
		var err error
		if inputs, err = generateInputs(sz, seeds); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}
	golden, err := goldenOutputs(cfg)
	if err != nil {
		return nil, err
	}
	want := map[string]analysisOutput{}
	for _, o := range cfg.want {
		want[o.key()] = o
	}
	l := ph.newLane(cfg.root)

	u := readUsage()
	start := time.Now()
	passes := 0
	for ; passes < sz.minPasses || time.Since(start) < cfg.dur; passes++ {
		passStart := time.Now()
		for _, in := range inputs {
			for _, m := range methods {
				t0 := time.Now()
				var out analysisOutput
				var err error
				if l == nil {
					out, err = analyzeOnce(in, m.sel)
				} else {
					out, err = l.analyzeTraced(in, m.tag, m.sel)
				}
				ph.lat = append(ph.lat, float64(time.Since(t0)))
				ph.attempted++
				if err == nil {
					err = checkAnalysis(out, want, golden)
				}
				if err != nil {
					ph.lat[len(ph.lat)-1] = math.Inf(1)
					ph.failed++
					ph.problem("%s: %v", out.key(), err)
					continue
				}
				if passes == 0 {
					ph.analysis = append(ph.analysis, out)
					if _, ok := want[out.key()]; !ok {
						want[out.key()] = out
					}
					countAnalysis(ph.counts, m.tag, in, out)
				}
			}
		}
		if l != nil {
			l.add("analyze.pass", float64(time.Since(passStart)))
		}
	}
	ph.wall = time.Since(start)
	ph.usage = u.since()
	if ph.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	ph.mergeLanes()
	ph.info["scale"] = analyzeScale
	ph.info["datasets"] = len(inputs)
	ph.info["data_seeds"] = seeds
	ph.info["passes"] = passes
	ph.info["analyses"] = ph.attempted
	return ph, nil
}

// countAnalysis adds one analysis of the first pass to the exact per-pass
// counts: design cells materialized and subset evaluations per selection.
func countAnalysis(counts map[string]float64, tag string, in analyzeInput, out analysisOutput) {
	rows := float64(in.d.NumRows())
	counts["dataset.cells_per_pass"] += rows * float64(out.JoinAll.InputFeatures+out.JoinOpt.InputFeatures)
	counts["fs.evaluations_per_pass."+tag+".joinall"] += float64(out.JoinAll.Evaluations)
	counts["fs.evaluations_per_pass."+tag+".joinopt"] += float64(out.JoinOpt.Evaluations)
}

// analyzeOnce is the untraced operation: one hamlet.Analyze call.
func analyzeOnce(in analyzeInput, sel hamlet.FeatureSelector) (analysisOutput, error) {
	out := analysisOutput{Dataset: in.d.Name, DataSeed: in.seed, Method: sel.Name()}
	rep, err := hamlet.Analyze(in.d, sel, nil, in.seed)
	if err != nil {
		return out, err
	}
	out.Avoided = avoided(rep.Decisions)
	out.JoinAll = planOutput{rep.JoinAll.InputFeatures, rep.JoinAll.Selected, rep.JoinAll.Evaluations, rep.JoinAll.TestError}
	out.JoinOpt = planOutput{rep.JoinOpt.InputFeatures, rep.JoinOpt.Selected, rep.JoinOpt.Evaluations, rep.JoinOpt.TestError}
	return out, nil
}

// analyzeTraced is the traced operation: the same pipeline Analyze runs,
// called step by step through the public API, each step in a span under
// "hamlet.analyze". The Naive Bayes statistics that selection builds
// internally are re-built alone in a "probe" span.
func (l *lane) analyzeTraced(in analyzeInput, tag string, sel hamlet.FeatureSelector) (analysisOutput, error) {
	out := analysisOutput{Dataset: in.d.Name, DataSeed: in.seed, Method: sel.Name()}
	op := obs.StartSpan("op")
	trains, err := l.analyzeSteps(op.Child("hamlet.analyze"), in, tag, sel, &out)
	l.finish(op)
	probe := obs.StartSpan("probe")
	for _, train := range trains {
		sp := probe.Child("nb.stats")
		nb.NewStats(train)
		l.done(sp)
	}
	l.finish(probe)
	return out, err
}

// analyzeSteps runs Analyze's steps under root and returns the training
// designs it selected on.
func (l *lane) analyzeSteps(root *obs.Span, in analyzeInput, tag string, sel hamlet.FeatureSelector, out *analysisOutput) ([]*hamlet.Design, error) {
	defer l.done(root)
	sp := root.Child("core.join_opt_plan")
	optPlan, decisions, err := hamlet.NewAdvisor().JoinOptPlan(in.d)
	l.done(sp)
	if err != nil {
		return nil, err
	}
	out.Avoided = avoided(decisions)
	split, err := hamlet.DefaultSplit(in.d.NumRows(), in.seed)
	if err != nil {
		return nil, err
	}
	var trains []*hamlet.Design
	for _, p := range []struct {
		tag  string
		plan hamlet.Plan
		out  *planOutput
	}{{"joinall", in.d.JoinAllPlan(), &out.JoinAll}, {"joinopt", optPlan, &out.JoinOpt}} {
		sp = root.Child("dataset.materialize." + p.tag)
		design, err := in.d.Materialize(p.plan)
		l.done(sp)
		if err != nil {
			return nil, err
		}
		train, val, test := split.Apply(design)
		sp = root.Child("fs.select." + tag + "." + p.tag)
		res, err := sel.Select(nb.New(), train, val)
		l.done(sp)
		if err != nil {
			return nil, err
		}
		sp = root.Child("ml.evaluate")
		testErr, err := ml.Evaluate(nb.New(), train, test, res.Features)
		l.done(sp)
		if err != nil {
			return nil, err
		}
		*p.out = planOutput{design.NumFeatures(), res.FeatureNames(train), res.Evaluations, testErr}
		trains = append(trains, train)
	}
	return trains, nil
}

// avoided lists the attribute tables the advisor cleared for avoidance.
func avoided(decisions []hamlet.Decision) []string {
	out := []string{}
	for _, d := range decisions {
		if d.Considered && d.Avoid {
			out = append(out, d.Attr)
		}
	}
	return out
}

// checkAnalysis holds one output to the §5 table, to the first pass's (or
// the untraced phase's) output for the same input, and to the golden file.
func checkAnalysis(out analysisOutput, want, golden map[string]analysisOutput) error {
	if exp, ok := paperAvoided[out.Dataset]; !ok || !slices.Equal(out.Avoided, exp) {
		return fmt.Errorf("avoided %v, §5 table says %v", out.Avoided, exp)
	}
	if w, ok := want[out.key()]; ok && !reflect.DeepEqual(out, w) {
		return fmt.Errorf("output %+v differs from earlier %+v", out, w)
	}
	if golden == nil {
		return nil
	}
	g, ok := golden[out.key()]
	if !ok {
		return fmt.Errorf("no golden entry")
	}
	if !reflect.DeepEqual(out, g) {
		return fmt.Errorf("output %+v differs from golden %+v", out, g)
	}
	return nil
}

// goldenOutputs indexes the golden file; it applies to seed 1 only.
func goldenOutputs(cfg runCfg) (map[string]analysisOutput, error) {
	if cfg.seed != 1 {
		return nil, nil
	}
	data := cfg.golden
	if data == nil {
		data = analyzeGolden
	}
	var outs []analysisOutput
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&outs); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	m := map[string]analysisOutput{}
	for _, o := range outs {
		m[o.key()] = o
	}
	return m, nil
}
