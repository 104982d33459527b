package dataset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// The binning that turns numeric series into the nominal columns datasets
// are built from lives in relational, where ReadCSV bins numeric CSV columns
// with it; these tests exercise it through that package's API.

func TestEqualWidthBinsBasic(t *testing.T) {
	c, err := relational.EqualWidthBins("x", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Card != 5 || c.Name != "x" {
		t.Fatalf("column = %+v", c)
	}
	want := []int32{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("bin[%d] = %d, want %d (all %v)", i, c.Data[i], want[i], c.Data)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEqualWidthBinsUpperEdge(t *testing.T) {
	c, err := relational.EqualWidthBins("x", []float64{0, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Data[1] != 3 {
		t.Fatalf("max value should land in the last bin, got %d", c.Data[1])
	}
}

func TestEqualWidthBinsConstantSeries(t *testing.T) {
	c, err := relational.EqualWidthBins("x", []float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("constant series should bin to 0")
		}
	}
}

// TestEqualWidthBinsWideRange bins ranges whose width hi - lo overflows a
// float64: every value must still land in the bin of its position.
func TestEqualWidthBinsWideRange(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		bins int
		want []int32
	}{
		{[]float64{-1e308, 0, 1e308}, 2, []int32{0, 1, 1}},
		{[]float64{-1e308, -4e307, 4e307, 1e308}, 4, []int32{0, 1, 2, 3}},
	} {
		col, err := relational.EqualWidthBins("x", c.vals, c.bins)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(col.Data, c.want) {
			t.Errorf("bins of %v = %v, want %v", c.vals, col.Data, c.want)
		}
	}
}

func TestEqualWidthBinsErrors(t *testing.T) {
	if _, err := relational.EqualWidthBins("x", []float64{1}, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := relational.EqualWidthBins("x", nil, 3); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, err := relational.EqualWidthBins("x", []float64{1, math.NaN()}, 3); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := relational.EqualWidthBins("x", []float64{1, math.Inf(1)}, 3); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestEqualWidthBinsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.IntN(300)
		bins := 1 + rng.IntN(12)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*200 - 100
		}
		c, err := relational.EqualWidthBins("x", vals, bins)
		if err != nil {
			return false
		}
		// All codes in range, and binning is monotone: vi ≤ vj ⇒ bin_i ≤ bin_j.
		for i := range vals {
			if c.Data[i] < 0 || int(c.Data[i]) >= bins {
				return false
			}
			for j := range vals {
				if vals[i] < vals[j] && c.Data[i] > c.Data[j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualFrequencyBinsBalanced(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i * i) // heavily skewed
	}
	c, err := relational.EqualFrequencyBins("x", vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, v := range c.Data {
		counts[v]++
	}
	for b, cnt := range counts {
		if cnt != 25 {
			t.Fatalf("bin %d has %d values, want 25 (%v)", b, cnt, counts)
		}
	}
}

func TestEqualFrequencyBinsTiesShareBin(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 2, 3, 4, 5}
	c, err := relational.EqualFrequencyBins("x", vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := c.Data[0]
	for i := 1; i < 4; i++ {
		if c.Data[i] != first {
			t.Fatalf("tied values split across bins: %v", c.Data)
		}
	}
}

func TestEqualFrequencyBinsMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.IntN(200)
		bins := 1 + rng.IntN(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.IntN(30)) // many ties
		}
		c, err := relational.EqualFrequencyBins("x", vals, bins)
		if err != nil {
			return false
		}
		for i := range vals {
			if c.Data[i] < 0 || int(c.Data[i]) >= bins {
				return false
			}
			for j := range vals {
				if vals[i] < vals[j] && c.Data[i] > c.Data[j] {
					return false
				}
				if vals[i] == vals[j] && c.Data[i] != c.Data[j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualFrequencyBinsErrors(t *testing.T) {
	if _, err := relational.EqualFrequencyBins("x", []float64{1}, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := relational.EqualFrequencyBins("x", nil, 2); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, err := relational.EqualFrequencyBins("x", []float64{math.NaN()}, 2); err == nil {
		t.Fatal("NaN accepted")
	}
}
