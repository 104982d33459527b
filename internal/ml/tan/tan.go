// Package tan implements the Tree-Augmented Naive Bayes classifier
// (Friedman, Geiger & Goldszmidt 1997) discussed in the paper's Appendix E.
//
// TAN relaxes Naive Bayes' conditional-independence assumption by allowing
// each feature one feature parent in addition to the class. The structure is
// learned Chow–Liu style: build the complete graph over features weighted by
// conditional mutual information I(X_i; X_j | Y), extract a maximum spanning
// tree, and direct it away from an arbitrary root.
//
// The paper's Appendix E observation — which tests in this package verify —
// is that under the FD FK → X_R materialized by a KFK join, every foreign
// feature attaches to FK in the learned tree, so it participates only through
// the (unhelpful) Kronecker-delta distribution P(X_R | FK), and TAN gains
// nothing over Naive Bayes from the joined features.
package tan

import (
	"fmt"
	"math"

	"hamlet/internal/dataset"
	"hamlet/internal/ml"
	"hamlet/internal/stats"
)

// Learner is the ml.Learner adapter for TAN.
type Learner struct {
	// Alpha is the Laplace smoothing pseudo-count for the CPTs.
	Alpha float64
}

// New returns a TAN learner with add-one smoothing.
func New() *Learner { return &Learner{Alpha: 1} }

// Name implements ml.Learner.
func (l *Learner) Name() string { return "tan" }

// Model is a trained TAN model.
type Model struct {
	// Features are the design-matrix column indices in use, in tree order.
	Features []int
	// Parent[j] is the index (into Features) of feature j's feature
	// parent, or -1 for the root.
	Parent []int
	// logPrior[c] is log P(Y=c).
	logPrior []float64
	// cpts[j] holds log P(x_j | parent value, class): indexed
	// [((c*parentCard)+pv)*card + v]. For the root, parentCard = 1.
	cpts  [][]float64
	cards []int
	// NumClasses is the target cardinality.
	NumClasses int
}

// Predict implements ml.Model.
func (mod *Model) Predict(m *dataset.Design, row int) int32 {
	best := int32(0)
	bestScore := math.Inf(-1)
	for c := 0; c < mod.NumClasses; c++ {
		score := mod.logPrior[c]
		for j, fi := range mod.Features {
			v := int(m.Features[fi].Data[row])
			pv := 0
			if p := mod.Parent[j]; p >= 0 {
				pv = int(m.Features[mod.Features[p]].Data[row])
			}
			score += mod.cpts[j][(c*parentCard(mod, j)+pv)*mod.cards[j]+v]
		}
		if score > bestScore {
			bestScore = score
			best = int32(c)
		}
	}
	return best
}

func parentCard(mod *Model, j int) int {
	if p := mod.Parent[j]; p >= 0 {
		return mod.cards[p]
	}
	return 1
}

// Fit implements ml.Learner: Chow–Liu structure learning over conditional
// mutual information, then smoothed CPT estimation.
func (l *Learner) Fit(m *dataset.Design, features []int) (ml.Model, error) {
	if err := ml.CheckFeatures(m, features); err != nil {
		return nil, err
	}
	if !(l.Alpha > 0) || math.IsInf(l.Alpha, 1) {
		return nil, fmt.Errorf("tan: smoothing alpha must be positive and finite, got %v", l.Alpha)
	}
	n := m.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("tan: empty training set")
	}
	k := len(features)
	mod := &Model{Features: features, NumClasses: m.NumClasses}
	mod.cards = make([]int, k)
	for j, fi := range features {
		mod.cards[j] = m.Features[fi].Card
	}

	// Structure: maximum spanning tree over CMI weights (Prim's algorithm).
	mod.Parent = make([]int, k)
	for j := range mod.Parent {
		mod.Parent[j] = -1
	}
	if k > 1 {
		weight := func(a, b int) float64 {
			fa, fb := m.Features[features[a]], m.Features[features[b]]
			return stats.ConditionalMutualInformation(fa.Data, fa.Card, fb.Data, fb.Card, m.Y, m.NumClasses)
		}
		inTree := make([]bool, k)
		bestW := make([]float64, k)
		bestFrom := make([]int, k)
		for j := 1; j < k; j++ {
			bestW[j] = weight(0, j)
			bestFrom[j] = 0
		}
		inTree[0] = true
		for added := 1; added < k; added++ {
			pick, pickW := -1, math.Inf(-1)
			for j := 1; j < k; j++ {
				if !inTree[j] && bestW[j] > pickW {
					pick, pickW = j, bestW[j]
				}
			}
			inTree[pick] = true
			mod.Parent[pick] = bestFrom[pick]
			for j := 1; j < k; j++ {
				if !inTree[j] {
					if w := weight(pick, j); w > bestW[j] {
						bestW[j] = w
						bestFrom[j] = pick
					}
				}
			}
		}
	}

	// Parameters: class prior and per-feature CPTs with Laplace smoothing.
	classCounts := make([]int, m.NumClasses)
	for _, y := range m.Y {
		classCounts[y]++
	}
	mod.logPrior = make([]float64, m.NumClasses)
	for c := range mod.logPrior {
		mod.logPrior[c] = math.Log((float64(classCounts[c]) + l.Alpha) / (float64(n) + l.Alpha*float64(m.NumClasses)))
	}
	mod.cpts = make([][]float64, k)
	for j, fi := range features {
		card := mod.cards[j]
		pcard := parentCard(mod, j)
		counts := make([]int, m.NumClasses*pcard*card)
		data := m.Features[fi].Data
		var pdata []int32
		if p := mod.Parent[j]; p >= 0 {
			pdata = m.Features[features[p]].Data
		}
		for i := 0; i < n; i++ {
			pv := 0
			if pdata != nil {
				pv = int(pdata[i])
			}
			counts[(int(m.Y[i])*pcard+pv)*card+int(data[i])]++
		}
		cpt := make([]float64, len(counts))
		for c := 0; c < m.NumClasses; c++ {
			for pv := 0; pv < pcard; pv++ {
				base := (c*pcard + pv) * card
				total := 0
				for v := 0; v < card; v++ {
					total += counts[base+v]
				}
				for v := 0; v < card; v++ {
					cpt[base+v] = math.Log((float64(counts[base+v]) + l.Alpha) / (float64(total) + l.Alpha*float64(card)))
				}
			}
		}
		mod.cpts[j] = cpt
	}
	return mod, nil
}
