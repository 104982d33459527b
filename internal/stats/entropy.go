// Package stats provides the statistical primitives that the rest of
// Hamlet-Go is built on: information-theoretic quantities over nominal
// (categorical) variables, correlation measures, discrete samplers with and
// without skew, and deterministic random-number streams.
//
// All information-theoretic quantities use natural logarithms internally and
// are reported in bits (log base 2), matching the convention used in the
// paper's Appendix D guard "H(Y) < 0.5 bits ≈ a 90%:10% class split".
package stats

import "math"

// log2 converts a natural logarithm value to bits.
const log2 = math.Ln2

// EntropyCounts returns the Shannon entropy, in bits, of the empirical
// distribution induced by the given category counts. Zero counts contribute
// nothing. The entropy of an empty or all-zero count vector is 0.
func EntropyCounts(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log(p)
	}
	return h / log2
}

// Entropy returns the empirical Shannon entropy, in bits, of a column of
// category codes drawn from a domain of the given cardinality. Codes outside
// [0, card) are ignored.
func Entropy(codes []int32, card int) float64 {
	if card <= 0 || len(codes) == 0 {
		return 0
	}
	counts := make([]int, card)
	for _, v := range codes {
		if v >= 0 && int(v) < card {
			counts[v]++
		}
	}
	return EntropyCounts(counts)
}

// JointCounts tabulates the joint contingency table of two code columns.
// The result is a row-major cardA×cardB table: counts[a*cardB+b].
// The two slices must have equal length; codes outside range are ignored.
func JointCounts(a []int32, cardA int, b []int32, cardB int) []int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	counts := make([]int, cardA*cardB)
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if x < 0 || int(x) >= cardA || y < 0 || int(y) >= cardB {
			continue
		}
		counts[int(x)*cardB+int(y)]++
	}
	return counts
}

// MutualInformationCounts returns I(A;B) in bits from a row-major joint
// contingency table with cardA rows and cardB columns.
func MutualInformationCounts(joint []int, cardA, cardB int) float64 {
	if cardA <= 0 || cardB <= 0 || len(joint) < cardA*cardB {
		return 0
	}
	total := 0
	rowSums := make([]int, cardA)
	colSums := make([]int, cardB)
	for a := 0; a < cardA; a++ {
		for b := 0; b < cardB; b++ {
			c := joint[a*cardB+b]
			rowSums[a] += c
			colSums[b] += c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	ft := float64(total)
	mi := 0.0
	for a := 0; a < cardA; a++ {
		if rowSums[a] == 0 {
			continue
		}
		for b := 0; b < cardB; b++ {
			c := joint[a*cardB+b]
			if c == 0 {
				continue
			}
			pab := float64(c) / ft
			pa := float64(rowSums[a]) / ft
			pb := float64(colSums[b]) / ft
			mi += pab * math.Log(pab/(pa*pb))
		}
	}
	if mi < 0 {
		// Guard against tiny negative values from floating-point error.
		mi = 0
	}
	return mi / log2
}

// MutualInformation returns the empirical mutual information I(A;B), in bits,
// between two columns of category codes.
func MutualInformation(a []int32, cardA int, b []int32, cardB int) float64 {
	return MutualInformationCounts(JointCounts(a, cardA, b, cardB), cardA, cardB)
}

// InformationGainRatio returns IGR(F;Y) = I(F;Y)/H(F), the mutual information
// between a feature and the target normalized by the feature's own entropy.
// This is the relevancy score from the paper's §3.1.2 that can prefer foreign
// features over the FK because it penalizes large domains. If H(F) is zero
// (constant feature) the ratio is defined as 0.
func InformationGainRatio(f []int32, cardF int, y []int32, cardY int) float64 {
	hf := Entropy(f, cardF)
	if hf == 0 {
		return 0
	}
	return MutualInformation(f, cardF, y, cardY) / hf
}

// ConditionalMutualInformation returns I(A;B|C) in bits, used by the TAN
// structure learner (Appendix E) to weight candidate tree edges. It is
// computed as Σ_c P(c) · I(A;B | C=c) from the three code columns.
func ConditionalMutualInformation(a []int32, cardA int, b []int32, cardB int, c []int32, cardC int) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(c) < n {
		n = len(c)
	}
	if n == 0 || cardA <= 0 || cardB <= 0 || cardC <= 0 {
		return 0
	}
	// Partition rows by the conditioning value and accumulate per-slice MI.
	perC := make([][]int, cardC)
	counts := make([]int, cardC)
	for idx := range perC {
		perC[idx] = make([]int, cardA*cardB)
	}
	for i := 0; i < n; i++ {
		av, bv, cv := a[i], b[i], c[i]
		if av < 0 || int(av) >= cardA || bv < 0 || int(bv) >= cardB || cv < 0 || int(cv) >= cardC {
			continue
		}
		perC[cv][int(av)*cardB+int(bv)]++
		counts[cv]++
	}
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	if total == 0 {
		return 0
	}
	cmi := 0.0
	for cv := 0; cv < cardC; cv++ {
		if counts[cv] == 0 {
			continue
		}
		w := float64(counts[cv]) / float64(total)
		cmi += w * MutualInformationCounts(perC[cv], cardA, cardB)
	}
	return cmi
}
