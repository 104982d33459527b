package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper artifact.
type Runner func(Budget) (*Result, error)

// Registry maps experiment IDs to runners — the per-experiment index of
// DESIGN.md §5.
var Registry = map[string]Runner{
	"fig1":  RunFig1,
	"fig3":  RunFig3,
	"fig4":  RunFig4,
	"fig6":  RunFig6,
	"fig7":  RunFig7,
	"fig8a": RunFig8A,
	"fig8b": RunFig8B,
	"fig8c": RunFig8C,
	"fig9":  RunFig9,
	"fig10": RunFig10,
	"fig11": RunFig11,
	"fig12": RunFig12,
	"fig13": RunFig13,
	"tan":   RunTAN,

	// Extensions beyond the paper's figures (see extensions.go): the
	// appendix's third simulation scenario, the FCBF instance-based
	// redundancy baseline, the §4.2 joint-decision ablation, and the
	// Appendix D skew-guard comparison.
	"xsfk":      RunXsFk,
	"fcbf":      RunFCBF,
	"joint":     RunJoint,
	"skewguard": RunSkewGuard,
	"coldstart": RunColdStart,
	"cv":        RunCV,
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run looks up and executes one experiment.
func Run(id string, b Budget) (*Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(b)
}
