package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hamlet/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze_seed1.golden.json from a full-size seed-1 analyze pass")

// toyCfg is the configuration every toy test runs with: seed 1, so the
// analyze golden file applies.
func toyCfg() runCfg { return runCfg{seed: 1, dur: 150 * time.Millisecond, toy: true} }

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadsToy runs every workload at toy size through the same code
// and checks as a full run, and expects every end-to-end metric.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, toyCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || exitCode([]*result{r}) != 0 {
				t.Fatalf("toy run not clean: attempted %d failed %d problems %v", r.Attempted, r.Failed, r.Problems)
			}
			for _, m := range endToEnd {
				got, ok := r.Metrics[m.name]
				if !m.gated {
					got, ok = r.Ungated[m.name]
				}
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
		})
	}
}

// TestTraceToy runs the traced variant of a serve workload, which also runs
// the analyze and montecarlo probes, and expects every per-layer metric and
// a trace.json that report can profile.
func TestTraceToy(t *testing.T) {
	dir := t.TempDir()
	r, err := trace(mustWorkload(t, "serve-hot"), toyCfg(), dir, flag.NewFlagSet("benchmark", flag.ContinueOnError))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("traced toy run not clean: failed %d problems %v", r.Failed, r.Problems)
	}
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	run, err := report.Load(filepath.Join(dir, "serve-hot"))
	if err != nil {
		t.Fatal(err)
	}
	p := report.NewProfile(run.Trace)
	if p == nil || p.Spans < 3 {
		t.Fatalf("trace.json profiles to %v", p)
	}
}

// TestTamperedResponseFails shows a wrong served answer is counted in
// error_rate and fails the run: on serve-hot every fifth answer is wrong and
// byte identity catches it; on serve-cold every answer is wrong, and only
// the oracle check of the never-seen keys makes every operation fail.
func TestTamperedResponseFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		every    int64
	}{{"serve-hot", 5}, {"serve-cold", 1}} {
		t.Run(tc.workload, func(t *testing.T) {
			var n atomic.Int64
			cfg := toyCfg()
			cfg.tamper = func(body []byte) []byte {
				if n.Add(1)%tc.every != 0 {
					return body
				}
				return bytes.Replace(body, []byte(`"considered":true`), []byte(`"considered":false`), 1)
			}
			r, err := measure(mustWorkload(t, tc.workload), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed == 0 || r.ErrorRate <= 0 || r.Correct || exitCode([]*result{r}) == 0 {
				t.Fatalf("tampered answers not caught: attempted %d failed %d error_rate %v", r.Attempted, r.Failed, r.ErrorRate)
			}
			if tc.every == 1 && r.Failed != r.Attempted {
				t.Fatalf("%d of %d tampered answers caught", r.Failed, r.Attempted)
			}
		})
	}
}

// TestTamperedGoldenFails shows an analyze output that disagrees with the
// golden file is counted in error_rate and fails the run.
func TestTamperedGoldenFails(t *testing.T) {
	var outs []analysisOutput
	if err := json.Unmarshal(analyzeGolden, &outs); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		outs[i].JoinOpt.TestError += 0.001
	}
	cfg := toyCfg()
	var err error
	if cfg.golden, err = json.Marshal(outs); err != nil {
		t.Fatal(err)
	}
	r, err := measure(mustWorkload(t, "analyze"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 || r.ErrorRate <= 0 || r.Correct || exitCode([]*result{r}) == 0 {
		t.Fatalf("tampered golden not caught: attempted %d failed %d", r.Attempted, r.Failed)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSummaryRoundTrip writes a summary of an untraced and a traced toy run
// as JSON, reads it back, and finds every metric BENCHMARK.json names.
func TestSummaryRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	w := mustWorkload(t, "montecarlo")
	plain, err := measure(w, toyCfg())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := trace(w, toyCfg(), t.TempDir(), flag.NewFlagSet("benchmark", flag.ContinueOnError))
	if err != nil {
		t.Fatal(err)
	}
	in := summary{Meta: meta{Seed: 1}, Results: []*result{plain, traced}}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out summary
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if !reflect.DeepEqual(r.Metrics, in.Results[i].Metrics) || r.Correct != in.Results[i].Correct {
			t.Errorf("result %d does not round-trip", i)
		}
	}
	// The untraced run reports exactly the end-to-end metrics and the traced
	// run exactly the per-layer metrics BENCHMARK.json names, in its units.
	for i, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		got := out.Results[i].Metrics
		if len(got) != len(want) {
			t.Errorf("result %d reports %d metrics, BENCHMARK.json names %d", i, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
			}
		}
	}

	// The last line carries exactly the four keys of the result format.
	blob, err = json.Marshal(lastLine([]*result{plain}))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("last line %s", blob)
	}
}

// TestAnalyzeGolden rewrites the golden file under -update: every full-size
// seed-1 input analyzed under both methods.
func TestAnalyzeGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the golden file")
	}
	inputs, err := generateInputs(fullAnalyze, dataSeeds(1, fullAnalyze.dataSeeds))
	if err != nil {
		t.Fatal(err)
	}
	var outs []analysisOutput
	for _, in := range inputs {
		for _, m := range methods {
			out, err := analyzeOnce(in, m.sel)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
	}
	data, err := json.MarshalIndent(outs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/analyze_seed1.golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
