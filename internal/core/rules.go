// Package core implements the paper's primary contribution: the a-priori
// decision rules that predict whether a key–foreign-key join is safe to
// avoid before feature selection (§4.2).
//
// Two rules are provided. The ROR rule thresholds the computable worst-case
// upper bound on the Risk Of Representation — the increase in Theorem 3.2's
// test-train error bound incurred by letting the foreign key represent the
// foreign features. The TR rule thresholds the tuple ratio n_train/n_R, a
// conservative simplification of the ROR that needs only table row counts.
// Both rules are deliberately conservative: a missed opportunity (performing
// an avoidable join) is acceptable; avoiding a join that blows up the test
// error is not.
package core

import (
	"fmt"
	"math"
)

// DefaultDelta is the failure probability δ in Theorem 3.2's bound; the
// paper fixes it at 0.1 (footnote 8).
const DefaultDelta = 0.1

// Thresholds pairs the decision thresholds of the two rules: avoid the join
// when ROR ≤ Rho, or (TR rule) when TR ≥ Tau.
type Thresholds struct {
	// Rho is the ROR-rule threshold ρ.
	Rho float64
	// Tau is the TR-rule threshold τ.
	Tau float64
	// Tolerance is the test-error increase the thresholds were tuned for.
	Tolerance float64
}

// DefaultThresholds are the paper's settings for a "significant increase"
// tolerance of 0.001 absolute test error: ρ = 2.5 and τ = 20 (§4.2).
var DefaultThresholds = Thresholds{Rho: 2.5, Tau: 20, Tolerance: 0.001}

// RelaxedThresholds are the paper's settings for a 0.01 tolerance (§5.2.2):
// ρ = 4.2 and τ = 10, which admit two more joins on Flights.
var RelaxedThresholds = Thresholds{Rho: 4.2, Tau: 10, Tolerance: 0.01}

// vcTerm computes sqrt(v·log(2en/v)), the VC-dimension contribution to
// Theorem 3.2's bound, guarding the degenerate v ≥ 2en region where the
// logarithm would go nonpositive.
func vcTerm(v, n float64) float64 {
	if v <= 0 || n <= 0 {
		return 0
	}
	arg := 2 * math.E * n / v
	if arg <= 1 {
		return 0
	}
	return math.Sqrt(v * math.Log(arg))
}

// ROR returns the worst-case Risk Of Representation of §4.2:
//
//	ROR = ( √(|D_FK|·log(2en/|D_FK|)) − √(q_R*·log(2en/q_R*)) ) / (δ·√(2n))
//
// where nTrain is the number of training examples, dFK = |D_FK| is the
// foreign key's domain size (= n_R), qRStar = min_{F∈X_R} |D_F| is the
// smallest foreign-feature domain, and delta is the failure probability.
// This upper-bounds the exact (incomputable) ROR; it corresponds to the
// worst case where U_S is empty and U_R is the lone smallest-domain foreign
// feature.
func ROR(nTrain, dFK, qRStar int, delta float64) (float64, error) {
	if nTrain <= 0 {
		return 0, fmt.Errorf("core: ROR needs positive training count, got %d", nTrain)
	}
	if dFK <= 0 || qRStar <= 0 {
		return 0, fmt.Errorf("core: ROR needs positive domain sizes, got dFK=%d qR*=%d", dFK, qRStar)
	}
	if qRStar > dFK {
		// |D_FK| ≥ q_R ≥ q_R* always holds for real schemas (RID is a key);
		// reject impossible inputs rather than return a negative risk.
		return 0, fmt.Errorf("core: qR*=%d exceeds |D_FK|=%d, impossible under a KFK schema", qRStar, dFK)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("core: delta must lie in (0,1), got %v", delta)
	}
	n := float64(nTrain)
	num := vcTerm(float64(dFK), n) - vcTerm(float64(qRStar), n)
	ror := num / (delta * math.Sqrt(2*n))
	if ror < 0 {
		// Possible only in the degenerate clamped-log region; the risk of
		// representation is never negative.
		ror = 0
	}
	return ror, nil
}

// TupleRatio returns TR = n_train / n_R, the paper's simplest join-avoidance
// statistic: the number of training examples per attribute-table tuple
// (equivalently, per foreign-key value, since the FK domain equals the set
// of RID values).
func TupleRatio(nTrain, nR int) (float64, error) {
	if nTrain <= 0 || nR <= 0 {
		return 0, fmt.Errorf("core: tuple ratio needs positive counts, got nTrain=%d nR=%d", nTrain, nR)
	}
	return float64(nTrain) / float64(nR), nil
}

// EntropyGuardBits is the paper's Appendix D conservative guard against
// malign foreign-key skew: if H(Y) is below this many bits (roughly a
// 90%:10% class split for a binary target), do not avoid any join.
const EntropyGuardBits = 0.5
