package relational

import (
	"fmt"
	"math"
	"sort"
)

// The paper assumes all features are nominal; numeric features "are assumed
// to have been discretized to a finite set of categories, say, using
// binning" (§2.1 footnote 1), and its evaluation uses "a standard
// unsupervised binning technique (equal-length histograms)" (§5). This file
// provides that preprocessing step for users bringing numeric columns;
// ReadCSV applies it to numeric CSV columns.

// EqualWidthBins discretizes a numeric series into the given number of
// equal-width bins over [min, max], returning a nominal column. Non-finite
// values are rejected; a constant series maps everything to bin 0.
func EqualWidthBins(name string, values []float64, bins int) (*Column, error) {
	if bins < 1 {
		return nil, fmt.Errorf("relational: need at least one bin, got %d", bins)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("relational: binning an empty series")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("relational: non-finite value at row %d", i)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	data := make([]int32, len(values))
	if lo == hi {
		return &Column{Name: name, Card: bins, Data: data}, nil
	}
	// hi - lo overflows to +Inf on a range such as [-1e308, 1e308]; such a
	// range is binned at half scale, which is exact for normal floats.
	// Every other range keeps scale 1.
	scale := 1.0
	if math.IsInf(hi-lo, 1) {
		scale = 0.5
	}
	width := (hi*scale - lo*scale) / float64(bins)
	for i, v := range values {
		b := int((v*scale - lo*scale) / width)
		if b >= bins { // v == hi lands exactly on the upper edge
			b = bins - 1
		}
		data[i] = int32(b)
	}
	return &Column{Name: name, Card: bins, Data: data}, nil
}

// EqualFrequencyBins discretizes a numeric series into (approximately)
// equal-count bins by rank — the quantile alternative to equal-width
// histograms, useful for heavy-tailed features. Equal values always land in
// the same bin (that of their earliest rank).
func EqualFrequencyBins(name string, values []float64, bins int) (*Column, error) {
	if bins < 1 {
		return nil, fmt.Errorf("relational: need at least one bin, got %d", bins)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("relational: binning an empty series")
	}
	order := make([]int, len(values))
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("relational: non-finite value at row %d", i)
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	data := make([]int32, len(values))
	n := len(values)
	prevV := math.NaN()
	prevBin := int32(0)
	for rank, idx := range order {
		b := int32(rank * bins / n)
		if values[idx] == prevV {
			b = prevBin
		}
		data[idx] = b
		prevV, prevBin = values[idx], b
	}
	return &Column{Name: name, Card: bins, Data: data}, nil
}
