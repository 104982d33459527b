package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is the deterministic random source used throughout Hamlet-Go. It wraps
// math/rand/v2's PCG generator so that every experiment is exactly
// reproducible from an explicit pair of 64-bit seeds.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a deterministic generator for the given seed. The second PCG
// word is a fixed golden-ratio constant so that adjacent seeds produce
// decorrelated streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Split derives an independent child stream from this generator. Each call
// consumes two words from the parent, so the sequence of children is itself
// deterministic.
func (r *RNG) Split() *RNG {
	return &RNG{rand.New(rand.NewPCG(r.Uint64(), r.Uint64()))}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm fills and returns a permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Categorical samples indices of a fixed, not necessarily normalized,
// nonnegative weight vector. It keeps the cumulative weights, so a draw is
// one Float64 and a binary search: O(log n) instead of a pass over the
// weights. Index i carries mass weights[i] when positive and is never drawn
// otherwise.
//
// A draw scales u = Float64() by the total mass and returns the first index
// whose cumulative weight exceeds u. That is exactly the index a linear scan
// accumulating the positive weights in order returns for the same u, since
// the cumulative table holds the scan's partial sums and the total is its
// last one.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a sampler over [0, len(weights)). It panics if the
// weights are empty or their positive mass is not a positive finite number:
// callers construct these vectors and an invalid one is a programming error,
// not a data error.
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		cum[i] = acc
	}
	if len(weights) == 0 || !(acc > 0) || math.IsInf(acc, 1) {
		panic("stats: Categorical requires a nonempty weight vector with positive finite mass")
	}
	return &Categorical{cum: cum}
}

// Sample draws one index, consuming one Float64 from r.
func (c *Categorical) Sample(r *RNG) int {
	u := r.Float64() * c.cum[len(c.cum)-1]
	// Binary search for the first cumulative weight above u, without
	// branches: a draw's comparisons are coin flips that a branch predictor
	// gets wrong half the time. u and every cum[i] are nonnegative, so
	// their IEEE bit patterns order as int64s and the difference cannot
	// overflow: its sign bit is set exactly when u < cum[i].
	ub := int64(math.Float64bits(u))
	base, n := 0, len(c.cum)
	for n > 1 {
		half := n >> 1
		le := ^((ub - int64(math.Float64bits(c.cum[base+half-1]))) >> 63) // all ones when cum <= u
		base += half & int(le)
		n -= half
	}
	return base
}

// Probs returns the normalized probability vector of the sampler.
func (c *Categorical) Probs() []float64 {
	total := c.cum[len(c.cum)-1]
	p := make([]float64, len(c.cum))
	prev := 0.0
	for i, x := range c.cum {
		p[i] = (x - prev) / total
		prev = x
	}
	return p
}

// Zipf is a sampler over [0, n) with Zipfian probabilities
// P(i) ∝ 1/(i+1)^s. The paper's Appendix D uses this as the "benign skew"
// distribution for foreign keys.
type Zipf struct {
	*Categorical
}

// NewZipf constructs a Zipf sampler over n categories with skew parameter s.
// s = 0 degenerates to the uniform distribution; larger s concentrates mass
// on low-index categories. It panics if n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf requires n > 0")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / pow(float64(i+1), s)
	}
	return &Zipf{NewCategorical(w)}
}

// pow wraps math.Pow with fast paths for the common exponents used by the
// samplers at construction time.
func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	return math.Pow(base, exp)
}

// NeedleAndThread is the paper's malign-skew foreign-key distribution
// (Appendix D, Figure 13(B)): one "needle" FK value carries probability mass
// p and maps to one value of the predictive foreign feature (and hence one Y
// value); the remaining mass 1−p is spread uniformly over the other n−1 FK
// values, all of which map to the other foreign-feature value.
type NeedleAndThread struct {
	// N is the foreign-key domain size (n_R).
	N int
	// NeedleProb is the probability mass on the needle value (index 0).
	NeedleProb float64
}

// Probs returns the full probability vector of the distribution.
func (d NeedleAndThread) Probs() []float64 {
	p := make([]float64, d.N)
	if d.N == 0 {
		return p
	}
	p[0] = d.NeedleProb
	if d.N > 1 {
		rest := (1 - d.NeedleProb) / float64(d.N-1)
		for i := 1; i < d.N; i++ {
			p[i] = rest
		}
	} else {
		p[0] = 1
	}
	return p
}
