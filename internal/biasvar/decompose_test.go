package biasvar

import (
	"math"
	"slices"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// decomposeRows is the row-by-row decomposition the compacted one must
// equal bit for bit: p1[i] is test row i's P(Y=1|x), computed again for
// every row, preds[l][i] is model l's prediction of row i, and the terms
// are summed in row order as they are computed.
func decomposeRows(p1s []float64, preds [][]int32) Decomp {
	n := len(p1s)
	l := len(preds)
	var d Decomp
	for i := 0; i < n; i++ {
		p1 := p1s[i]
		// Optimal prediction and noise.
		var t int32
		noise := p1
		if p1 >= 0.5 {
			t, noise = 1, 1-p1
		}
		// Main prediction: mode of the L predictions (binary target).
		ones := 0
		for _, pl := range preds {
			ones += int(pl[i])
		}
		var ym int32
		if 2*ones > l {
			ym = 1
		}
		bias := 0.0
		if ym != t {
			bias = 1
		}
		// Variance: disagreement with the main prediction.
		disagree := ones
		if ym == 1 {
			disagree = l - ones
		}
		variance := float64(disagree) / float64(l)
		// Expected test error of each model, exact in P(Y|x).
		errSum := 0.0
		for _, pl := range preds {
			if pl[i] == 1 {
				errSum += 1 - p1
			} else {
				errSum += p1
			}
		}
		d.TestError += errSum / float64(l)
		d.Bias += bias
		d.Variance += variance
		d.NetVariance += (1 - 2*bias) * variance
		d.Noise += noise
	}
	fn := float64(n)
	d.TestError /= fn
	d.Bias /= fn
	d.Variance /= fn
	d.NetVariance /= fn
	d.Noise /= fn
	return d
}

// sameBits reports whether two decompositions are equal float bit for
// float bit.
func sameBits(a, b Decomp) bool {
	x := []float64{a.TestError, a.Bias, a.NetVariance, a.Variance, a.Noise}
	y := []float64{b.TestError, b.Bias, b.NetVariance, b.Variance, b.Noise}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// expand returns the row-by-row inputs of decomposeRows for a compacted
// test set and its [L × distinct] predictions.
func expand(ts *testSet, preds []uint8) ([]float64, [][]int32) {
	d := len(ts.p1)
	p1 := make([]float64, len(ts.of))
	rows := make([][]int32, len(preds)/d)
	for l := range rows {
		rows[l] = make([]int32, len(ts.of))
	}
	for i, j := range ts.of {
		p1[i] = ts.p1[j]
		for l := range rows {
			rows[l][i] = int32(preds[l*d+int(j)])
		}
	}
	return p1, rows
}

// TestDecomposeMatchesRowByRow runs the compacted decomposition on real
// worlds' test sets against the row-by-row oracle, with every row's
// P(Y|x) taken from the world again.
func TestDecomposeMatchesRowByRow(t *testing.T) {
	for _, sc := range []synth.Scenario{synth.OneXr, synth.AllXsXr, synth.XsFkOnly} {
		world, err := synth.NewWorld(synth.SimConfig{Scenario: sc, DS: 2, DR: 3, NR: 7, P: 0.2}, 4)
		if err != nil {
			t.Fatal(err)
		}
		// newTestSet compacts its design in place, so test is a second draw.
		test := world.Sample(300, stats.NewRNG(6))
		ts := newTestSet(world, world.Sample(300, stats.NewRNG(6)))
		rng := stats.NewRNG(8)
		preds := make([]uint8, 9*len(ts.p1))
		for k := range preds {
			preds[k] = uint8(rng.Uint64() & 1)
		}
		p1, rows := expand(ts, preds)
		for i := range p1 {
			if want := world.TrueConditional(test, i); p1[i] != want {
				t.Fatalf("%v: row %d has P(Y=1|x) %v, its distinct row %v", sc, i, want, p1[i])
			}
		}
		if got, want := ts.decompose(preds), decomposeRows(p1, rows); !sameBits(got, want) {
			t.Errorf("%v: compacted %+v, row by row %+v", sc, got, want)
		}
	}
}

// fuzzP1 holds the P(Y=1|x) values FuzzDecompose picks from: the ends, the
// tie at 0.5 and its neighbours, and values whose complements round.
var fuzzP1 = []float64{0, 0.5, 1, 0.1, 0.9, 0.25, 0.75, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 1e-300, 1 - 0x1p-53, 1.0 / 3}

// FuzzDecompose bit-compares the compacted decomposition with the
// row-by-row oracle on a fuzzed row → distinct-row map, P(Y=1|x) values
// from fuzzP1 or the input's bytes, and L from 2 to 130 models whose
// predictions of a distinct row are all 0, all 1, a tie (half and half) or
// the input's bits.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(10), uint8(3), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(255), uint8(40), uint8(128), []byte{0xff, 0, 2, 9, 200, 17})
	f.Add(uint8(0), uint8(0), uint8(62), []byte{})
	f.Add(uint8(63), uint8(63), uint8(6), []byte{2, 2, 2, 2, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, rows, distinct, models uint8, data []byte) {
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		n := 1 + int(rows)
		d := 1 + int(distinct)%n
		l := 2 + int(models)%129
		ts := &testSet{of: make([]int32, n), p1: make([]float64, d)}
		for i := range ts.of {
			ts.of[i] = int32(int(next()) % d)
		}
		for j := range ts.p1 {
			if k := int(next()); k < 2*len(fuzzP1) {
				ts.p1[j] = fuzzP1[k%len(fuzzP1)]
			} else {
				ts.p1[j] = float64(k) / 255
			}
		}
		preds := make([]uint8, l*d)
		for j := 0; j < d; j++ {
			mode := next() % 4
			for m := 0; m < l; m++ {
				var p uint8
				switch mode {
				case 1:
					p = 1
				case 2:
					p = uint8(m & 1)
				case 3:
					p = next() & 1
				}
				preds[m*d+j] = p
			}
		}
		p1, byRow := expand(ts, preds)
		if got, want := ts.decompose(preds), decomposeRows(p1, byRow); !sameBits(got, want) {
			t.Fatalf("n=%d d=%d L=%d: compacted %+v, row by row %+v", n, d, l, got, want)
		}
	})
}

// TestCompact checks compact's contract on random designs: every row maps
// to a distinct row equal to it, the distinct rows are pairwise different
// and listed in the order of their first occurrence with its label, and
// there are as many as a string-keyed count finds. Cardinalities up to 2^31 over up to eight
// columns carry the mixed-radix key far past 64 bits, and every third
// design plants rows that differ from an earlier row only in the first
// column, by 4: with three or more columns of cardinality 2^31, a key
// wrapped modulo 2^64 would merge them.
func TestCompact(t *testing.T) {
	rng := stats.NewRNG(12)
	cards := []int{1, 2, 3, 40, 5000, 1 << 20, math.MaxInt32, 1 << 31}
	for trial := 0; trial < 300; trial++ {
		wide := trial%3 == 0
		cols := 1 + rng.IntN(8)
		n := 1 + rng.IntN(200)
		m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
		for c := 0; c < cols; c++ {
			card := cards[rng.IntN(len(cards))]
			if wide {
				card = 1 << 31
			}
			m.Features = append(m.Features, dataset.Feature{Card: card, Data: make([]int32, n)})
		}
		for i := 0; i < n; i++ {
			m.Y[i] = int32(rng.IntN(2))
			src := -1
			if i > 0 && rng.IntN(3) > 0 {
				src = rng.IntN(i)
			}
			for c := range m.Features {
				f := &m.Features[c]
				if src >= 0 {
					f.Data[i] = f.Data[src]
				} else {
					f.Data[i] = int32(rng.IntN(min(f.Card, 6)))
				}
			}
			if src >= 0 && rng.IntN(2) == 0 {
				if wide {
					m.Features[0].Data[i] ^= 4
				} else {
					m.Features[0].Data[i] = int32(rng.IntN(min(m.Features[0].Card, 6)))
				}
			}
		}
		rows := &dataset.Design{NumClasses: m.NumClasses, Y: slices.Clone(m.Y)}
		for _, f := range m.Features {
			rows.Features = append(rows.Features, dataset.Feature{Card: f.Card, Data: slices.Clone(f.Data)})
		}
		of := compact(rows)
		d := rows.NumRows()
		if len(of) != n {
			t.Fatalf("trial %d: %d row indices for %d rows", trial, len(of), n)
		}
		row := func(md *dataset.Design, i int) []int32 {
			out := make([]int32, len(md.Features))
			for c := range md.Features {
				out[c] = md.Features[c].Data[i]
			}
			return out
		}
		seen := 0
		for i, j := range of {
			if j < 0 || int(j) >= d {
				t.Fatalf("trial %d: row %d maps to %d of %d distinct rows", trial, i, j, d)
			}
			if !slices.Equal(row(m, i), row(rows, int(j))) {
				t.Fatalf("trial %d: row %d %v maps to distinct row %d %v", trial, i, row(m, i), j, row(rows, int(j)))
			}
			switch {
			case int(j) == seen:
				if rows.Y[j] != m.Y[i] {
					t.Fatalf("trial %d: distinct row %d has label %d, its first occurrence %d", trial, j, rows.Y[j], m.Y[i])
				}
				seen++
			case int(j) > seen:
				t.Fatalf("trial %d: row %d maps to distinct row %d before row %d has occurred", trial, i, j, seen)
			}
		}
		if seen != d {
			t.Fatalf("trial %d: %d of %d distinct rows occur", trial, seen, d)
		}
		for a := 0; a < d; a++ {
			for b := a + 1; b < d; b++ {
				if slices.Equal(row(rows, a), row(rows, b)) {
					t.Fatalf("trial %d: distinct rows %d and %d are equal: %v", trial, a, b, row(rows, a))
				}
			}
		}
		if want := distinctRows(m); d != want {
			t.Fatalf("trial %d: %d distinct rows, a string-keyed count finds %d", trial, d, want)
		}
	}
}
