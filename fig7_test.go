package hamlet

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hamlet/internal/experiments"
	"hamlet/internal/synth"
)

// TestFig7MatchesAnalyze pins that Figure 7 and the product run one
// pipeline: at the quick budget, every Figure 7 cell that Analyze also
// reports equals Analyze on the same generated mimic, whose holdout split
// RunFig7 seeds with the generation seed + 1. The compared cells are both
// plans' test errors, selected features, subset evaluations and input
// features; the wall-clock cells are not reproducible and are skipped.
func TestFig7MatchesAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 7 and 28 analyses; run without -short")
	}
	b := experiments.Quick
	res, err := experiments.RunFig7(b)
	if err != nil {
		t.Fatal(err)
	}
	errT, rtT, selT := res.Tables[0], res.Tables[1], res.Tables[2]
	row := 0
	for si, spec := range synth.Mimics() {
		seed := b.Seed + 20 + uint64(si)
		d, err := spec.Generate(b.MimicScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range experiments.Methods() {
			rep, err := Analyze(d, method, nil, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			where := spec.Name + "/" + method.Name()
			if got := cell(t, errT, row, "Dataset") + "/" + cell(t, errT, row, "Method"); got != where {
				t.Fatalf("Figure 7(A) row %d is %s, want %s", row, got, where)
			}
			for _, c := range []struct {
				tab          *experiments.Table
				column, want string
			}{
				{errT, "JoinAll", fmt.Sprintf("%.4f", rep.JoinAll.TestError)},
				{errT, "JoinOpt", fmt.Sprintf("%.4f", rep.JoinOpt.TestError)},
				{rtT, "EvalsAll", strconv.Itoa(rep.JoinAll.Evaluations)},
				{rtT, "EvalsOpt", strconv.Itoa(rep.JoinOpt.Evaluations)},
				{rtT, "FeatsAll", strconv.Itoa(rep.JoinAll.InputFeatures)},
				{rtT, "FeatsOpt", strconv.Itoa(rep.JoinOpt.InputFeatures)},
			} {
				if got := cell(t, c.tab, row, c.column); got != c.want {
					t.Errorf("%s: %q %s = %s, Analyze says %s", where, c.tab.Title, c.column, got, c.want)
				}
			}
			for i, out := range []PlanOutcome{rep.JoinAll, rep.JoinOpt} {
				if got, want := cell(t, selT, 2*row+i, "Selected"), strings.Join(out.Selected, " "); got != want {
					t.Errorf("%s %s: Figure 7 selected %q, Analyze selected %q", where, cell(t, selT, 2*row+i, "Plan"), got, want)
				}
			}
			row++
		}
	}
	if row != len(errT.Rows) {
		t.Errorf("compared %d Figure 7 rows of %d", row, len(errT.Rows))
	}
}

// cell returns one cell of a results table by row index and column name.
func cell(t *testing.T, tab *experiments.Table, row int, column string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == column && row < len(tab.Rows) {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("%s has no cell (%d, %s)", tab.Title, row, column)
	return ""
}
