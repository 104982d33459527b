package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is the deterministic random source used throughout Hamlet-Go:
// math/rand/v2's PCG generator, so that every experiment is exactly
// reproducible from an explicit pair of 64-bit seeds.
//
// RNG owns its PCG state and steps it itself (pcg), so its Uint64 inlines
// into a sampling loop instead of costing a call per word. The embedded
// rand.Rand serves every method RNG does not define and reads the same
// state as its Source, so there is one stream: interleaving RNG's own draws
// with the embedded methods yields rand.Rand's stream over rand.NewPCG.
// Both are held by value, so an RNG is one allocation.
//
// The Rand points into the RNG, so an RNG must not be copied: a copy would
// step its own state while its Rand stepped the original's. go vet's
// copylocks check reports copies through the noCopy field.
type RNG struct {
	rand.Rand
	noCopy noCopy
	src    pcg
}

// noCopy has the Lock and Unlock methods go vet's copylocks check looks for.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// pcg is math/rand/v2's PCG: a 128-bit linear congruential state stepped by
// the same multiplier and increment, and the DXSM ("double xorshift
// multiply") output function, so it yields rand.NewPCG's stream word for
// word. TestRNGMatchesRand pins it to rand.PCG.
type pcg struct{ hi, lo uint64 }

// Uint64 steps the state and returns the next word. It implements
// rand.Source.
func (p *pcg) Uint64() uint64 {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	// state = state*mul + inc, mod 2^128.
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo, p.hi = lo, hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// NewRNG returns a deterministic generator for the given seed. The second PCG
// word is a fixed golden-ratio constant so that adjacent seeds produce
// decorrelated streams.
func NewRNG(seed uint64) *RNG {
	return newRNG(seed, 0x9e3779b97f4a7c15)
}

// newRNG returns the generator of rand.NewPCG(seed1, seed2).
func newRNG(seed1, seed2 uint64) *RNG {
	r := &RNG{src: pcg{hi: seed1, lo: seed2}}
	r.Rand = *rand.New(&r.src)
	return r
}

// Split derives an independent child stream from this generator. Each call
// consumes two words from the parent, so the sequence of children is itself
// deterministic.
func (r *RNG) Split() *RNG {
	return newRNG(r.Uint64(), r.Uint64())
}

// Uint64 returns the next 64-bit word of the stream, as rand.Rand's Uint64
// does. A kernel that needs IntN(2) takes Uint64()&1: IntN masks the low
// bits for every power of two.
func (r *RNG) Uint64() uint64 {
	return r.src.Uint64()
}

// Float64 returns a number in [0, 1) from one word: rand.Rand's Float64,
// drawn without the interface call.
func (r *RNG) Float64() float64 {
	return wordFloat64(r.Uint64())
}

// wordFloat64 maps a word to rand.Rand's Float64 of it: its low 53 bits
// over 2^53.
func wordFloat64(x uint64) float64 {
	return float64(x<<11>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Coin is a Bernoulli(p) test on raw words: Flip(x) reports whether x's
// Float64 lies below p, so Flip(r.Uint64()) is r.Bernoulli(p) without the
// float conversion, and a sampling loop inlines it.
//
// The test is exact. A word's Float64 is k/2^53 for its low 53 bits k, and
// 2^53 is a power of two, so k/2^53 < p exactly when the integer k lies
// below the real p·2^53, that is, below ceil(p·2^53); p·2^53 and its
// ceiling are exact in float64 for p in [0, 1].
type Coin uint64

// NewCoin returns the test for p. A p of 1 or more always flips true and
// one that is not positive, or NaN, never does, as Float64() < p would.
func NewCoin(p float64) Coin {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Coin(math.Ceil(p * (1 << 53)))
}

// Flip reports whether x's Float64 lies below the coin's p.
func (c Coin) Flip(x uint64) bool {
	return x<<11>>11 < uint64(c)
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
// nonnegative weight vector. Index i carries mass weights[i] when positive
// and is never drawn otherwise.
//
// A draw scales u = Float64() by the total mass and returns the first index
// whose cumulative weight exceeds u (the last index if none does). That is
// exactly the index a linear scan accumulating the positive weights in order
// returns for the same u, since the cumulative table holds the scan's
// partial sums and the total is its last one.
//
// The first index is found by Chen and Asau's indexed search: a guide table
// of 2^b ≥ n buckets, keyed by the top b of the 53 bits Float64 uses, holds
// the index drawn at each bucket's smallest word. u is monotone in the word,
// so the answer for any word of a bucket is at or after the bucket's entry,
// and a draw walks forward from it. There are n cumulative weights and
// 2^b ≥ n equally likely buckets, so a draw steps past at most one weight
// on average, whatever the weights.
type Categorical struct {
	cum   []float64
	guide []int32
	shift uint
}

// NewCategorical builds a sampler over [0, len(weights)). It panics if the
// weights are empty or longer than an int32 indexes, or their positive mass
// is not a positive finite number: callers construct these vectors and an
// invalid one is a programming error, not a data error.
func NewCategorical(weights []float64) *Categorical {
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		cum[i] = acc
	}
	if len(weights) == 0 || len(weights) > math.MaxInt32 || !(acc > 0) || math.IsInf(acc, 1) {
		panic("stats: Categorical requires a nonempty weight vector with positive finite mass")
	}
	b := bits.Len(uint(len(weights) - 1)) // smallest b with 2^b ≥ n
	c := &Categorical{cum: cum, guide: make([]int32, 1<<b), shift: uint(53 - b)}
	// One forward walk over the buckets' smallest words fills the guide.
	i := 0
	for j := range c.guide {
		i = c.walk(i, uint64(j)<<c.shift)
		c.guide[j] = int32(i)
	}
	return c
}

// Sample draws one index, consuming one word from r.
func (c *Categorical) Sample(r *RNG) int {
	return c.SampleWord(r.Uint64())
}

// SampleWord returns the index drawn from the word x: the one Sample
// returns when r's next word is x. A sampling loop calls it on
// r.Uint64() so that both inline.
func (c *Categorical) SampleWord(x uint64) int {
	return c.walk(int(c.guide[x<<11>>11>>c.shift]), x)
}

// walk steps forward from index i, which must not lie after x's index,
// to the first index whose cumulative weight exceeds x's scaled draw,
// stopping at the last index.
func (c *Categorical) walk(i int, x uint64) int {
	cum := c.cum
	u := wordFloat64(x) * cum[len(cum)-1]
	for i < len(cum)-1 && cum[i] <= u {
		i++
	}
	return i
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
