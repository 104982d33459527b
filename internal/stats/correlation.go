package stats

import "math"

// Pearson returns the Pearson product-moment correlation coefficient between
// two equal-length series. It returns 0 when either series has zero variance
// or when the series are shorter than two points. The paper uses this to
// verify that the worst-case ROR is approximately linear in 1/sqrt(TR)
// (reported coefficient ≈ 0.97 in Figure 4(C)).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Mean returns the arithmetic mean of the series, or 0 for an empty series.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// RMSE returns the root mean squared error between predicted and true ordinal
// class indices, the error metric the paper uses for multi-class ordinal
// targets (§5.1). The slices must be the same length; extra entries in either
// are ignored.
func RMSE(pred, truth []int32) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := float64(pred[i] - truth[i])
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// ZeroOneError returns the fraction of positions where pred differs from
// truth, the error metric the paper uses for binary targets (§5.1).
func ZeroOneError(pred, truth []int32) float64 {
	n := len(pred)
	if len(truth) < n {
		n = len(truth)
	}
	if n == 0 {
		return 0
	}
	wrong := 0
	for i := 0; i < n; i++ {
		if pred[i] != truth[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(n)
}
