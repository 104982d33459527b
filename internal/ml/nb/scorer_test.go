package nb

import (
	"fmt"
	"math"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/stats"
)

// referenceScores is the per-row oracle for Model and SubsetScorer: the
// class scores log P(c) + Σ_f log((count+α)/(N_c+α·card_f)), with the
// logarithm taken per row and the features summed left to right.
func referenceScores(s *Stats, features []int, alpha float64, m *dataset.Design, row int) []float64 {
	out := make([]float64, s.NumClasses)
	for c := range out {
		score := math.Log((float64(s.ClassCounts[c]) + alpha) / (float64(s.N) + alpha*float64(s.NumClasses)))
		denom := float64(s.ClassCounts[c])
		for _, f := range features {
			card := s.Cards[f]
			v := int(m.Features[f].Data[row])
			count := float64(s.Counts[f][c*card+v])
			score += math.Log((count + alpha) / (denom + alpha*float64(card)))
		}
		out[c] = score
	}
	return out
}

// referencePredict is the oracle argmax: strict >, first class wins ties.
func referencePredict(s *Stats, features []int, alpha float64, m *dataset.Design, row int) int32 {
	best := int32(0)
	bestScore := math.Inf(-1)
	for c, score := range referenceScores(s, features, alpha, m, row) {
		if score > bestScore {
			bestScore = score
			best = int32(c)
		}
	}
	return best
}

// referencePosterior normalizes the oracle scores exactly as Posterior does.
func referencePosterior(s *Stats, features []int, alpha float64, m *dataset.Design, row int) []float64 {
	logs := referenceScores(s, features, alpha, m, row)
	maxLog := math.Inf(-1)
	for _, l := range logs {
		if l > maxLog {
			maxLog = l
		}
	}
	total := 0.0
	for c := range logs {
		logs[c] = math.Exp(logs[c] - maxLog)
		total += logs[c]
	}
	for c := range logs {
		logs[c] /= total
	}
	return logs
}

// randomDesign draws n rows over features with the given cardinalities; the
// label leans on feature 0 so the classes are not uniform noise.
func randomDesign(r *stats.RNG, n, classes int, cards []int) *dataset.Design {
	m := &dataset.Design{NumClasses: classes, Y: make([]int32, n)}
	for f, card := range cards {
		data := make([]int32, n)
		for i := range data {
			data[i] = int32(r.IntN(card))
		}
		m.Features = append(m.Features, dataset.Feature{Name: fmt.Sprintf("f%d", f), Card: card, Data: data})
	}
	for i := range m.Y {
		if r.Bernoulli(0.6) {
			m.Y[i] = int32(int(m.Features[0].Data[i]) % classes)
		} else {
			m.Y[i] = int32(r.IntN(classes))
		}
	}
	return m
}

// subsetSequences returns the shapes of subset sequences wrapper and filter
// search produce over d features, plus repeats and random jumps.
func subsetSequences(r *stats.RNG, d int) map[string][][]int {
	seqs := map[string][][]int{}
	// Forward-shaped: rounds of current+f, picking one feature per round.
	var fwd [][]int
	var current []int
	used := make([]bool, d)
	fwd = append(fwd, nil)
	for round := 0; round < 3 && round < d; round++ {
		for f := 0; f < d; f++ {
			if !used[f] {
				fwd = append(fwd, append(append([]int(nil), current...), f))
			}
		}
		pick := r.IntN(d)
		for used[pick] {
			pick = (pick + 1) % d
		}
		used[pick] = true
		current = append(current, pick)
	}
	seqs["forward"] = fwd
	// Filter prefixes: order[:k] for k = 0..d over a random order.
	order := r.Perm(d)
	filter := [][]int{nil}
	for k := 1; k <= d; k++ {
		filter = append(filter, order[:k])
	}
	seqs["filter"] = filter
	// Backward removals: rounds of current minus one position.
	var bwd [][]int
	full := r.Perm(d)
	bwd = append(bwd, full)
	for len(full) > 1 {
		for pos := range full {
			cand := append(append([]int(nil), full[:pos]...), full[pos+1:]...)
			bwd = append(bwd, cand)
		}
		pick := r.IntN(len(full))
		full = append(full[:pick:pick], full[pick+1:]...)
	}
	seqs["backward"] = bwd
	// Repeats: each subset scored twice in a row, then the sequence again.
	var rep [][]int
	for _, s := range [][]int{{0}, {0}, {0, 1}, {0, 1}, nil, nil, {0}, {0, 1}} {
		if len(s) == 0 || s[len(s)-1] < d {
			rep = append(rep, s)
		}
	}
	seqs["repeats"] = rep
	// Random jumps: arbitrary subsets with possible duplicates of features.
	var jumps [][]int
	for i := 0; i < 12; i++ {
		n := r.IntN(d + 2)
		s := make([]int, n)
		for j := range s {
			s[j] = r.IntN(d)
		}
		jumps = append(jumps, s)
	}
	seqs["jumps"] = jumps
	return seqs
}

// TestModelAndScorerMatchReference checks Model.Predict, Model.Posterior
// and SubsetScorer against the per-row oracle with exact equality, over
// binary and multi-class designs, cardinalities from 1 to ≥200, several
// smoothing strengths and every subset sequence shape.
func TestModelAndScorerMatchReference(t *testing.T) {
	designs := []struct {
		name    string
		classes int
		cards   []int
	}{
		{"binary", 2, []int{3, 1, 2, 250, 5, 1}},
		{"three-class", 3, []int{4, 200, 1, 2, 7}},
		{"five-class", 5, []int{2, 1, 300, 3}},
	}
	for di, dz := range designs {
		r := stats.NewRNG(uint64(100 + di))
		train := randomDesign(r, 400, dz.classes, dz.cards)
		val := randomDesign(r, 150, dz.classes, dz.cards)
		s := NewStats(train)
		for _, alpha := range []float64{0.1, 1, 100} {
			for name, seq := range subsetSequences(r, len(dz.cards)) {
				t.Run(fmt.Sprintf("%s/alpha=%g/%s", dz.name, alpha, name), func(t *testing.T) {
					sc := NewSubsetScorer(s, alpha, val)
					for step, subset := range seq {
						pred, err := sc.Predict(subset)
						if err != nil {
							t.Fatal(err)
						}
						mod, err := ModelFromStats(s, subset, alpha)
						if err != nil {
							t.Fatal(err)
						}
						for row := 0; row < val.NumRows(); row++ {
							want := referencePredict(s, subset, alpha, val, row)
							if pred[row] != want {
								t.Fatalf("step %d subset %v row %d: scorer %d, reference %d", step, subset, row, pred[row], want)
							}
							if got := mod.Predict(val, row); got != want {
								t.Fatalf("step %d subset %v row %d: Model.Predict %d, reference %d", step, subset, row, got, want)
							}
							got, wantP := mod.Posterior(val, row), referencePosterior(s, subset, alpha, val, row)
							for c := range wantP {
								if got[c] != wantP[c] {
									t.Fatalf("step %d subset %v row %d class %d: Posterior %v, reference %v", step, subset, row, c, got[c], wantP[c])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestScorerReturnsModelErrors pins the validation errors: the same
// messages as ModelFromStats, index first, and a failed call leaves the
// kept scores usable.
func TestScorerReturnsModelErrors(t *testing.T) {
	m := tiny()
	s := NewStats(m)
	sc := NewSubsetScorer(s, 1, m)
	if _, err := sc.Predict([]int{0}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{2}, {-1}, {0, 5}} {
		_, err := sc.Predict(bad)
		_, want := ModelFromStats(s, bad, 1)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("subset %v: scorer error %v, ModelFromStats error %v", bad, err, want)
		}
	}
	pred, err := sc.Predict([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for row := range pred {
		if want := referencePredict(s, []int{0, 1}, 1, m, row); pred[row] != want {
			t.Fatalf("row %d after errors: %d, want %d", row, pred[row], want)
		}
	}
	for _, alpha := range []float64{0, -1} {
		bad := NewSubsetScorer(s, alpha, m)
		for _, subset := range [][]int{nil, {0}, {7}} {
			_, err := bad.Predict(subset)
			_, want := ModelFromStats(s, subset, alpha)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("alpha %v subset %v: scorer error %v, ModelFromStats error %v", alpha, subset, err, want)
			}
		}
	}
}

// TestScorerTiesPickFirstClass pins the tie rule on a design where every
// class scores the same (balanced classes; feature 1 takes each value once
// per class): the scorer and Model.Predict must both answer class 0.
func TestScorerTiesPickFirstClass(t *testing.T) {
	m := tiny()
	s := NewStats(m)
	sc := NewSubsetScorer(s, 1, m)
	for _, subset := range [][]int{nil, {1}, {1, 1}} {
		pred, err := sc.Predict(subset)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := ModelFromStats(s, subset, 1)
		if err != nil {
			t.Fatal(err)
		}
		for row, p := range pred {
			if got := mod.Predict(m, row); p != 0 || got != 0 {
				t.Fatalf("subset %v row %d: scorer %d, Model.Predict %d, want the first class", subset, row, p, got)
			}
		}
	}
}
