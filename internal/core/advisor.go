package core

import (
	"fmt"
	"strings"

	"hamlet/internal/dataset"
)

// Rule selects which decision rule the advisor applies.
type Rule int

const (
	// TRRule thresholds the tuple ratio; it needs only row counts and is
	// the rule the paper recommends to analysts first.
	TRRule Rule = iota
	// RORRule thresholds the worst-case ROR; it additionally inspects the
	// foreign features' domain sizes (but never the data values).
	RORRule
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	if r == RORRule {
		return "ROR"
	}
	return "TR"
}

// ParseRule maps a rule name to its Rule, ignoring case: the inverse of
// String for the CLIs' -rule flags.
func ParseRule(name string) (Rule, error) {
	switch strings.ToUpper(name) {
	case "TR":
		return TRRule, nil
	case "ROR":
		return RORRule, nil
	}
	return 0, fmt.Errorf("unknown rule %q (want TR or ROR)", name)
}

// Decision is the advisor's verdict for one attribute table.
type Decision struct {
	// FK names the foreign key, Attr the attribute table.
	FK, Attr string
	// Considered is false when the rule's preconditions fail (open-domain
	// FK, or the malign-skew entropy guard tripped); the join is then
	// always performed.
	Considered bool
	// Reason explains a Considered=false or keep verdict.
	Reason string
	// Avoid is the verdict: true means the join is predicted safe to
	// avoid.
	Avoid bool
	// TR is the tuple ratio n_train/n_R.
	TR float64
	// ROR is the worst-case risk of representation.
	ROR float64
	// QRStar is min_F |D_F| over the attribute table's features.
	QRStar int
	// DFK is the foreign key's domain size (= n_R).
	DFK int
}

// Advisor applies the join-avoidance rules to a normalized dataset.
type Advisor struct {
	// Rule selects TR or ROR; both use the same conservative guards.
	Rule Rule
	// Thresholds holds ρ and τ; zero value means DefaultThresholds.
	Thresholds Thresholds
	// Delta is Theorem 3.2's failure probability; zero means DefaultDelta.
	Delta float64
	// TrainFraction is the share of entity rows used for training under
	// the holdout protocol; zero means the paper's 0.5. The rules use
	// n_train = TrainFraction·n_S, matching the paper's reported tuple
	// ratios (e.g. Flights' airport tables at TR ≈ 10.5).
	TrainFraction float64
	// DisableEntropyGuard turns off the Appendix D H(Y) skew guard;
	// intended for ablations only.
	DisableEntropyGuard bool
}

// NewAdvisor returns an advisor with the paper's defaults: TR rule, ρ = 2.5,
// τ = 20, δ = 0.1, 50% training fraction, entropy guard on.
func NewAdvisor() *Advisor { return &Advisor{} }

func (a *Advisor) thresholds() Thresholds {
	if a.Thresholds == (Thresholds{}) {
		return DefaultThresholds
	}
	return a.Thresholds
}

func (a *Advisor) delta() float64 {
	if a.Delta == 0 {
		return DefaultDelta
	}
	return a.Delta
}

func (a *Advisor) trainFraction() float64 {
	if a.TrainFraction == 0 {
		return 0.5
	}
	return a.TrainFraction
}

// Decide evaluates every attribute table of the dataset and returns one
// Decision per table, in declaration order. It is CollectStats followed by
// DecideFromStats; callers answering many decision requests over the same
// dataset (cmd/loadgen, a decision service) should collect once and call
// DecideFromStats directly.
func (a *Advisor) Decide(d *dataset.Dataset) ([]Decision, error) {
	s, err := CollectStats(d)
	if err != nil {
		return nil, err
	}
	return a.DecideFromStats(s)
}

// JoinOptPlan returns the paper's JoinOpt plan: join exactly the attribute
// tables the rules did not clear for avoidance, along with the per-table
// decisions backing it.
func (a *Advisor) JoinOptPlan(d *dataset.Dataset) (dataset.Plan, []Decision, error) {
	decisions, err := a.Decide(d)
	if err != nil {
		return dataset.Plan{}, nil, err
	}
	return planFrom(decisions), decisions, nil
}

// planFrom joins every attribute table whose decision does not avoid it.
func planFrom(decisions []Decision) dataset.Plan {
	var p dataset.Plan
	for _, dec := range decisions {
		if !(dec.Considered && dec.Avoid) {
			p.JoinFKs = append(p.JoinFKs, dec.FK)
		}
	}
	return p
}
