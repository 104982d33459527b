package experiments

import (
	"fmt"

	"hamlet/internal/core"
	"hamlet/internal/synth"
)

// RunFig1 measures the relationships Figure 1 draws between the decision
// rules and actual safety. Over the simulation grid, every configuration is
// classified three ways: actually safe to avoid (box A: ΔErr ≤ tolerance),
// cleared by the ROR rule (box C), cleared by the TR rule (box D).
//
// The operative guarantees — the reason the rules exist — are C ⊆ A and
// D ⊆ A: neither rule may clear a join whose avoidance blows up the error.
// Those are asserted exactly. The containment D ⊆ C is conceptual: the TR
// is a conservative *simplification* of the ROR, but the published
// threshold pair (ρ = 2.5, τ = 20) interleaves the two boundaries inside
// the band where ROR ≈ ρ, because the ROR also depends on n through its log
// term. Where the gap genuinely opens is the paper's Figure 5 scenario —
// q_R* comparable to |D_FK| — which the TR cannot see: the second summary
// block evaluates both rules there (rule verdicts only; no simulation is
// needed since the comparison is between the rules themselves).
func RunFig1(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	const tolerance = 0.001
	th := core.DefaultThresholds
	grid := &Table{Title: "Figure 1: rule verdicts vs actual safety per configuration",
		Columns: []string{"n_S", "|D_FK|", "dErr", "safeActual(A)", "safeROR(C)", "safeTR(D)"}}
	points, err := gridScatter(synth.OneXr, b, func(nS, nR int) uint64 { return b.Seed + uint64(190+nS*3+nR) })
	if err != nil {
		return nil, err
	}
	var total, inA, inC, inD, violCA, violDA, missedCA, missedDA int
	for _, p := range points {
		a := p.DeltaError <= tolerance
		c := p.ROR <= th.Rho
		dd := p.TR >= th.Tau
		grid.Add(d(p.nS), d(p.nR), f(p.DeltaError), fmt.Sprintf("%v", a), fmt.Sprintf("%v", c), fmt.Sprintf("%v", dd))
		total++
		if a {
			inA++
		}
		if c {
			inC++
		}
		if dd {
			inD++
		}
		if c && !a {
			violCA++
		}
		if dd && !a {
			violDA++
		}
		if a && !c {
			missedCA++
		}
		if a && !dd {
			missedDA++
		}
	}
	sum := &Table{Title: "Figure 1 summary: safety guarantees and conservatism",
		Columns: []string{"quantity", "value"}}
	sum.Add("configurations", d(total))
	sum.Add("|A| actually safe", d(inA))
	sum.Add("|C| ROR rule clears", d(inC))
	sum.Add("|D| TR rule clears", d(inD))
	sum.Add("violations C⊄A (ROR cleared an unsafe join)", d(violCA))
	sum.Add("violations D⊄A (TR cleared an unsafe join)", d(violDA))
	sum.Add("missed opportunities A∖C (conservatism of ROR)", d(missedCA))
	sum.Add("missed opportunities A∖D (conservatism of TR)", d(missedDA))

	// Figure 5's scenario: q_R* comparable to |D_FK| (every foreign
	// feature's domain as large as the FK's). The ROR collapses toward 0
	// and clears the join; the TR, blind to q_R*, still refuses low-TR
	// configurations — the true D ⊂ C gap.
	gap := &Table{Title: "Figure 5 scenario: q_R* = |D_FK| — where the ROR rule sees what the TR rule cannot",
		Columns: []string{"n_S", "|D_FK|", "TR", "ROR(qR*=2)", "ROR(qR*=|D_FK|)", "TRclears", "RORclears"}}
	gapCD := 0
	for _, p := range points {
		rorEqual, err := core.ROR(p.nS, p.nR, p.nR, core.DefaultDelta)
		if err != nil {
			return nil, err
		}
		trClears := p.TR >= th.Tau
		rorClears := rorEqual <= th.Rho
		if rorClears && !trClears {
			gapCD++
		}
		gap.Add(d(p.nS), d(p.nR), f(p.TR), f(p.ROR), f(rorEqual),
			fmt.Sprintf("%v", trClears), fmt.Sprintf("%v", rorClears))
	}
	sum.Add("Figure-5 gap: C∖D when qR*=|D_FK| (ROR clears, TR refuses)", d(gapCD))
	return &Result{ID: "fig1", Tables: []*Table{grid, sum, gap}}, nil
}
