package core

import (
	"fmt"
	"math"
	"sort"

	"hamlet/internal/dataset"
)

// The paper's §4.2 makes each attribute table's avoidance decision
// independently and flags joint decisions as future work. Independent
// decisions bound the risk of each substitution in isolation; when several
// joins are avoided at once, the kept foreign keys' domains add up in the
// model the classifier actually trains, so the combined representation risk
// exceeds any single table's. JointROR bounds that combined risk, and the
// advisor's joint mode greedily admits tables (lowest individual ROR first)
// while the joint bound stays under ρ — never avoiding a set whose combined
// risk the independent rule would not have accepted table by table.

// JointROR returns the worst-case risk of representation of avoiding a set
// of attribute tables at once: v_Yes sums the avoided FK domains (the VC
// dimension of a linear model over all of them), while the no-avoid
// comparator keeps the per-table minimum foreign-feature domains.
func JointROR(nTrain int, dFKs, qRStars []int, delta float64) (float64, error) {
	if len(dFKs) == 0 {
		return 0, nil
	}
	if len(dFKs) != len(qRStars) {
		return 0, fmt.Errorf("core: %d FK domains vs %d feature domains", len(dFKs), len(qRStars))
	}
	if nTrain <= 0 {
		return 0, fmt.Errorf("core: joint ROR needs positive training count, got %d", nTrain)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("core: delta must lie in (0,1), got %v", delta)
	}
	vYes, vNo := 0, 0
	for i := range dFKs {
		if dFKs[i] <= 0 || qRStars[i] <= 0 {
			return 0, fmt.Errorf("core: nonpositive domain at %d", i)
		}
		if qRStars[i] > dFKs[i] {
			return 0, fmt.Errorf("core: qR*=%d exceeds |D_FK|=%d at %d", qRStars[i], dFKs[i], i)
		}
		vYes += dFKs[i]
		vNo += qRStars[i]
	}
	n := float64(nTrain)
	ror := (vcTerm(float64(vYes), n) - vcTerm(float64(vNo), n)) / (delta * math.Sqrt(2*n))
	if ror < 0 {
		ror = 0
	}
	return ror, nil
}

// JointJoinOptPlan computes a JoinOpt plan under the joint rule: candidate
// tables are the ones the independent rule already cleared; they are
// admitted to the avoid set in increasing individual-ROR order while the
// joint ROR of the admitted set stays within ρ. The returned decisions are
// the independent ones with Avoid revised to the joint verdict (a table
// demoted by the joint bound keeps its statistics and gains a reason).
func (a *Advisor) JointJoinOptPlan(d *dataset.Dataset) (dataset.Plan, []Decision, error) {
	decisions, err := a.Decide(d)
	if err != nil {
		return dataset.Plan{}, nil, err
	}
	nTrain := int(a.trainFraction() * float64(d.NumRows()))
	th := a.thresholds()

	// Candidates: independently cleared tables, by increasing ROR.
	type cand struct {
		idx int
		ror float64
	}
	var cands []cand
	for i, dec := range decisions {
		if dec.Considered && dec.Avoid {
			cands = append(cands, cand{i, dec.ROR})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ror < cands[j].ror })

	var dFKs, qRStars []int
	admitted := make(map[int]bool)
	for _, c := range cands {
		dec := decisions[c.idx]
		q := dec.QRStar
		if q > dec.DFK {
			q = dec.DFK
		}
		tryD := append(append([]int(nil), dFKs...), dec.DFK)
		tryQ := append(append([]int(nil), qRStars...), q)
		jror, err := JointROR(nTrain, tryD, tryQ, a.delta())
		if err != nil {
			return dataset.Plan{}, nil, err
		}
		if jror <= th.Rho {
			dFKs, qRStars = tryD, tryQ
			admitted[c.idx] = true
		}
	}
	for i := range decisions {
		if decisions[i].Considered && decisions[i].Avoid && !admitted[i] {
			decisions[i].Avoid = false
			decisions[i].Reason = fmt.Sprintf("joint ROR of the avoid set would exceed ρ %.2f", th.Rho)
		}
	}
	return planFrom(decisions), decisions, nil
}

// RORMultiClass generalizes the worst-case ROR to C-class targets. The VC
// dimension is defined for binary classification; for multi-class "linear"
// models the Natarajan/graph dimensions are bounded log-linearly in the
// product of the total number of feature values and the number of classes
// (§4.2, citing Daniely et al.). We use the parameter-count surrogate of a
// softmax model — every domain size scales by (C−1) — which reduces
// exactly to ROR when C = 2 and grows the risk estimate with C, keeping
// the rule conservative for multi-class tasks.
func RORMultiClass(nTrain, dFK, qRStar, numClasses int, delta float64) (float64, error) {
	if numClasses < 2 {
		return 0, fmt.Errorf("core: need at least 2 classes, got %d", numClasses)
	}
	scale := numClasses - 1
	return ROR(nTrain, dFK*scale, qRStar*scale, delta)
}
