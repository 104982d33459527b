package stats

import "math"

// This file adds the small-sample significance machinery behind
// cmd/benchdiff: Welch's unequal-variance t-test with p-values from the
// Student-t CDF, itself computed via the regularized incomplete beta
// function. Benchmark samples are few (go test -count N with small N) and
// heteroscedastic across commits, which is exactly Welch's regime.

// SampleVariance returns the unbiased (n-1) sample variance of the series,
// or 0 for a series shorter than two points, the estimator the t-test
// needs.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// WelchTTest performs Welch's two-sample, two-sided t-test on x and y.
// It returns the t statistic, the Welch–Satterthwaite degrees of freedom,
// and the two-sided p-value for the null hypothesis that the means are
// equal.
//
// Degenerate inputs: when either sample has fewer than two points, no test
// is possible and all three returns are NaN. When both samples have zero
// variance, p is 1 for equal means and 0 otherwise (t is ±Inf and df NaN
// in the unequal case).
func WelchTTest(x, y []float64) (t, df, p float64) {
	n1, n2 := float64(len(x)), float64(len(y))
	if n1 < 2 || n2 < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m1, m2 := Mean(x), Mean(y)
	v1, v2 := SampleVariance(x), SampleVariance(y)
	se2 := v1/n1 + v2/n2
	if se2 == 0 {
		if m1 == m2 {
			return 0, math.NaN(), 1
		}
		return math.Inf(sign(m1 - m2)), math.NaN(), 0
	}
	t = (m1 - m2) / math.Sqrt(se2)
	df = se2 * se2 / (v1*v1/(n1*n1*(n1-1)) + v2*v2/(n2*n2*(n2-1)))
	// Two-sided: P(|T| > |t|) = I_{df/(df+t²)}(df/2, 1/2).
	p = RegIncBeta(df/2, 0.5, df/(df+t*t))
	return t, df, p
}

// sign returns +1 for positive d, -1 otherwise (math.Inf direction).
func sign(d float64) int {
	if d > 0 {
		return 1
	}
	return -1
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1], evaluated with the standard continued
// fraction (Lentz's method), using the symmetry relation to keep the
// fraction in its fast-converging region.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)) in log space for stability.
	lbeta, _ := math.Lgamma(a + b)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lbeta - lga - lgb)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - math.Exp(b*math.Log(1-x)+a*math.Log(x)+lbeta-lga-lgb)*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
