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

// referencePredict is the oracle prediction: referenceScan over the
// oracle scores.
func referencePredict(s *Stats, features []int, alpha float64, m *dataset.Design, row int) int32 {
	return referenceScan(referenceScores(s, features, alpha, m, row))
}

// referenceScan is the oracle argmax: a scan from -Inf with strict >, so
// the first class wins ties and a NaN score never wins.
func referenceScan(scores []float64) int32 {
	best := int32(0)
	bestScore := math.Inf(-1)
	for c, score := range scores {
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
// one-class, binary and multi-class designs (up to Walmart's 7 classes),
// cardinalities from 1 to ≥200, several smoothing strengths and every
// subset sequence shape.
func TestModelAndScorerMatchReference(t *testing.T) {
	designs := []struct {
		name    string
		classes int
		cards   []int
	}{
		{"one-class", 1, []int{3, 1, 40}},
		{"binary", 2, []int{3, 1, 2, 250, 5, 1}},
		{"three-class", 3, []int{4, 200, 1, 2, 7}},
		{"five-class", 5, []int{2, 1, 300, 3}},
		{"seven-class", 7, []int{81, 10, 2, 3, 45}},
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
	for _, alpha := range []float64{0, -1, math.NaN(), math.Inf(1)} {
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

// TestScorerResetMatchesFreshScorer rebinds one scorer to the statistics of
// successive training designs over the same columns, including ones with
// more and fewer classes, and checks every prediction against a fresh
// scorer's and the oracle's: Reset must forget every kept score and table.
func TestScorerResetMatchesFreshScorer(t *testing.T) {
	cards := []int{3, 1, 40, 2}
	r := stats.NewRNG(7)
	val := randomDesign(r, 90, 3, cards)
	subsets := [][]int{{0, 2}, {0, 2, 3}, {0, 2, 1}, nil, {3, 0}, {2}}
	var sc *SubsetScorer
	for round, classes := range []int{2, 2, 3, 2, 5, 3} {
		s := NewStats(randomDesign(r, 200, classes, cards))
		if sc == nil {
			sc = NewSubsetScorer(s, 1, val)
		} else {
			sc.Reset(s)
		}
		fresh := NewSubsetScorer(s, 1, val)
		for _, subset := range subsets {
			got, err := sc.Predict(subset)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Predict(subset)
			if err != nil {
				t.Fatal(err)
			}
			for row := range want {
				if got[row] != want[row] || got[row] != referencePredict(s, subset, 1, val, row) {
					t.Fatalf("round %d (%d classes) subset %v row %d: reset scorer %d, fresh scorer %d", round, classes, subset, row, got[row], want[row])
				}
			}
		}
	}
}

// specialScores are the floats the argmax must order like the strict->
// scan does: quiet and signaling NaNs of both signs, ±Inf, ±0, subnormals,
// the extremes and a few ordinary log-scores.
func specialScores() []float64 {
	return []float64{
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // smallest-payload positive NaN
		math.Float64frombits(0x7fffffffffffffff), // largest-payload positive NaN
		math.Float64frombits(0xfff8000000000000), // negative quiet NaN
		math.Float64frombits(0xffffffffffffffff), // largest-payload negative NaN
		math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, -2.5, -745.1, -1e300,
	}
}

// TestScoreKeyOrdersLikeFloats pins scoreKey's contract: on scores that are
// not NaN it orders exactly as > does, -0 and +0 included, and every NaN's
// key lies below negInfKey, the scan's start, which is scoreKey(-Inf).
func TestScoreKeyOrdersLikeFloats(t *testing.T) {
	if got := scoreKey(math.Inf(-1)); got != negInfKey {
		t.Fatalf("scoreKey(-Inf) = %#x, negInfKey = %#x", got, int64(negInfKey))
	}
	xs := specialScores()
	r := stats.NewRNG(5)
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Float64frombits(r.Uint64()))
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			if scoreKey(x) >= negInfKey {
				t.Fatalf("NaN %#x: key %#x is not below negInfKey", math.Float64bits(x), scoreKey(x))
			}
			continue
		}
		for _, y := range xs {
			if math.IsNaN(y) {
				continue
			}
			if (x > y) != (scoreKey(x) > scoreKey(y)) {
				t.Fatalf("%v > %v is %v, but their keys %#x > %#x is not", x, y, x > y, scoreKey(x), scoreKey(y))
			}
		}
	}
}

// TestExtendPicksLikeTheScan feeds extend class scores made of every
// special float and checks its pick against referenceScan, for one class,
// the binary loop and the general loop: every pair and triple of specials,
// and random 5-, 7- and 8-tuples of them. Feature 0's table adds -0 to
// every score, which leaves every float as it is, so the prefix scores are
// the scores picked from, and the last scores must keep their bits.
func TestExtendPicksLikeTheScan(t *testing.T) {
	specials := specialScores()
	r := stats.NewRNG(9)
	for _, classes := range []int{1, 2, 3, 5, 7, 8} {
		var rows [][]float64
		switch classes {
		case 1:
			for _, a := range specials {
				rows = append(rows, []float64{a})
			}
		case 2:
			for _, a := range specials {
				for _, b := range specials {
					rows = append(rows, []float64{a, b})
				}
			}
		case 3:
			for _, a := range specials {
				for _, b := range specials {
					for _, c := range specials {
						rows = append(rows, []float64{a, b, c})
					}
				}
			}
		default:
			for i := 0; i < 20000; i++ {
				row := make([]float64, classes)
				for c := range row {
					row[c] = specials[r.IntN(len(specials))]
				}
				rows = append(rows, row)
			}
		}
		n := len(rows)
		m := &dataset.Design{NumClasses: classes, Y: make([]int32, n),
			Features: []dataset.Feature{{Name: "f", Card: 1, Data: make([]int32, n)}}}
		sc := NewSubsetScorer(NewStats(m), 1, m)
		sc.logLik[0] = make([]float64, classes)
		for c := range sc.logLik[0] {
			sc.logLik[0][c] = math.Copysign(0, -1)
		}
		sc.built[0] = true
		for i, row := range rows {
			for c, x := range row {
				sc.prefixScores[c*n+i] = x
			}
		}
		sc.extend(0)
		for i, row := range rows {
			if want := referenceScan(row); sc.pred[i] != want {
				t.Fatalf("%d classes, scores %v: picked class %d, the scan picks %d", classes, row, sc.pred[i], want)
			}
			for c, x := range row {
				if got := sc.lastScores[c*n+i]; math.Float64bits(got) != math.Float64bits(x) && !(math.IsNaN(got) && math.IsNaN(x)) {
					t.Fatalf("%d classes, scores %v: class %d's last score %v", classes, row, c, got)
				}
			}
		}
	}
}

// FuzzSubsetScorer is a differential check of SubsetScorer.Predict against
// referencePredict, row for row, on random designs: 1 to 8 classes, cards
// 1 to 300, any finite positive alpha down to subnormals (whose smoothed
// probabilities underflow to -Inf scores), and one of the subset sequence
// shapes wrapper and filter search produce. Run `go test
// -fuzz=FuzzSubsetScorer ./internal/ml/nb` to explore beyond the seeds; CI
// runs a short leg on every push.
func FuzzSubsetScorer(f *testing.F) {
	for di, dz := range []struct {
		classes uint8
		cards   []int
	}{
		{1, []int{3, 1, 40}},
		{2, []int{3, 1, 2, 250, 5, 1}},
		{3, []int{4, 200, 1, 2, 7}},
		{5, []int{2, 1, 300, 3}},
		{7, []int{81, 10, 2, 3, 45}},
	} {
		cardBytes := make([]byte, 0, 2*len(dz.cards))
		for _, c := range dz.cards {
			cardBytes = append(cardBytes, byte((c-1)>>8), byte(c-1))
		}
		for ai, alpha := range []float64{0.1, 1, 100, math.SmallestNonzeroFloat64} {
			f.Add(uint64(100+di), dz.classes-1, cardBytes, math.Float64bits(alpha), uint8(di+ai))
		}
	}
	shapes := []string{"backward", "filter", "forward", "jumps", "repeats"}
	f.Fuzz(func(t *testing.T, seed uint64, classByte uint8, cardBytes []byte, alphaBits uint64, shape uint8) {
		classes := 1 + int(classByte%8)
		var cards []int
		for i := 0; i+1 < len(cardBytes) && len(cards) < 6; i += 2 {
			cards = append(cards, 1+(int(cardBytes[i])<<8|int(cardBytes[i+1]))%300)
		}
		if len(cards) == 0 {
			return
		}
		alpha := math.Abs(math.Float64frombits(alphaBits))
		if !(alpha > 0) || math.IsInf(alpha, 1) {
			return
		}
		r := stats.NewRNG(seed)
		train := randomDesign(r, 20+r.IntN(200), classes, cards)
		val := randomDesign(r, 10+r.IntN(100), classes, cards)
		s := NewStats(train)
		seq := subsetSequences(r, len(cards))[shapes[int(shape)%len(shapes)]]
		sc := NewSubsetScorer(s, alpha, val)
		for step, subset := range seq {
			pred, err := sc.Predict(subset)
			if err != nil {
				t.Fatal(err)
			}
			for row := range pred {
				if want := referencePredict(s, subset, alpha, val, row); pred[row] != want {
					t.Fatalf("step %d subset %v row %d: scorer %d, reference %d", step, subset, row, pred[row], want)
				}
			}
		}
	})
}
