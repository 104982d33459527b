package hamlet

import (
	"testing"
	"time"
)

func TestAnalyzeTrace(t *testing.T) {
	d := exampleDataset(t)
	rep, err := Analyze(d, ForwardSelection(), nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("Analyze returned no trace")
	}
	kids := rep.Trace.Children()
	names := make(map[string]bool, len(kids))
	for _, c := range kids {
		names[c.Name()] = true
	}
	for _, want := range []string{"advise", "gather", "plan(JoinAll)", "plan(JoinOpt)"} {
		if !names[want] {
			t.Errorf("trace missing %q child (have %v)", want, names)
		}
	}
	for _, c := range kids {
		if c.Name() == "advise" || c.Name() == "gather" {
			continue
		}
		stages := make(map[string]bool)
		for _, g := range c.Children() {
			stages[g.Name()] = true
		}
		for _, want := range []string{"materialize", "select(forward)", "train-eval"} {
			if !stages[want] {
				t.Errorf("%s missing %q stage (have %v)", c.Name(), want, stages)
			}
		}
		if c.Counter("evaluations") <= 0 {
			t.Errorf("%s has no evaluations counter", c.Name())
		}
	}
	if rep.Speedup <= 0 {
		t.Errorf("Speedup = %v, want > 0", rep.Speedup)
	}
	if rep.SpeedupBasis != SpeedupWallClock && rep.SpeedupBasis != SpeedupEvaluations {
		t.Errorf("SpeedupBasis = %q", rep.SpeedupBasis)
	}
}

func TestSpeedupBasisFallback(t *testing.T) {
	reliable := 10 * time.Millisecond
	tests := []struct {
		name      string
		all, opt  PlanOutcome
		want      float64
		wantBasis string
	}{
		{
			name:      "wall-clock when both reliable",
			all:       PlanOutcome{Elapsed: 4 * reliable, Evaluations: 100},
			opt:       PlanOutcome{Elapsed: reliable, Evaluations: 10},
			want:      4,
			wantBasis: SpeedupWallClock,
		},
		{
			name:      "evaluations when opt below timer resolution",
			all:       PlanOutcome{Elapsed: 4 * reliable, Evaluations: 100},
			opt:       PlanOutcome{Elapsed: 0, Evaluations: 20},
			want:      5,
			wantBasis: SpeedupEvaluations,
		},
		{
			name:      "evaluations when both below timer resolution",
			all:       PlanOutcome{Elapsed: 0, Evaluations: 60},
			opt:       PlanOutcome{Elapsed: 0, Evaluations: 6},
			want:      10,
			wantBasis: SpeedupEvaluations,
		},
		{
			name:      "no basis when nothing measurable",
			all:       PlanOutcome{},
			opt:       PlanOutcome{},
			want:      0,
			wantBasis: "",
		},
	}
	for _, tc := range tests {
		got, basis := speedup(tc.all, tc.opt)
		if got != tc.want || basis != tc.wantBasis {
			t.Errorf("%s: speedup = %v (%q), want %v (%q)", tc.name, got, basis, tc.want, tc.wantBasis)
		}
	}
}
