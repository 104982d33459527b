package core

import (
	"fmt"
	"math"

	"hamlet/internal/dataset"
	"hamlet/internal/stats"
)

// This file splits the advisor into its two natural halves: a one-time
// data scan (CollectStats) and a pure decision function over schema-level
// sufficient statistics (DecideFromStats). The paper's pitch is that the
// TR/ROR rules are a cheap, always-on check before feature selection — but
// Decide as originally written re-derived H(Y) and every per-table domain
// minimum on each call, an O(data) cost that dominates the O(1) rules. A
// service (and cmd/loadgen, which measures the service hot path) collects
// DatasetStats once per dataset and then answers decision requests from the
// cached statistics alone.

// AttrStats is the sufficient statistics of one attribute table: everything
// the TR and ROR rules inspect, and nothing else.
type AttrStats struct {
	// FK names the referencing foreign key; Attr the attribute table.
	FK, Attr string
	// NR is the attribute table's row count n_R (= the FK's domain size
	// |D_FK| under the KFK constraint).
	NR int
	// QRStar is min_F |D_F| over the table's feature columns (1 when the
	// table has no feature columns).
	QRStar int
	// ClosedDomain mirrors the dataset's declaration: false means the FK
	// cannot represent the foreign features and the join is never avoided.
	ClosedDomain bool
}

// DatasetStats is the advisor's complete view of a normalized dataset:
// entity-side counts, the target entropy feeding the Appendix D guard, and
// per-attribute-table statistics. Collect once, decide many times.
type DatasetStats struct {
	// Name is the dataset name (carried into Decision output and logs).
	Name string
	// NumRows is the entity table's row count n_S.
	NumRows int
	// TargetEntropy is H(Y) in bits over the entity rows.
	TargetEntropy float64
	// Attrs holds one entry per attribute table, in declaration order.
	Attrs []AttrStats
}

// CollectStats scans the dataset once and returns its sufficient
// statistics. This is the only advisor step that touches data values (the
// target column, for H(Y)) or column metadata.
func CollectStats(d *dataset.Dataset) (*DatasetStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	y := d.Entity.Column(d.Target)
	s := &DatasetStats{
		Name:          d.Name,
		NumRows:       d.NumRows(),
		TargetEntropy: stats.Entropy(y.Data, y.Card),
		Attrs:         make([]AttrStats, 0, len(d.Attrs)),
	}
	for _, at := range d.Attrs {
		qrs := math.MaxInt
		for _, c := range at.Table.Columns() {
			if c.Card < qrs {
				qrs = c.Card
			}
		}
		if at.Table.NumCols() == 0 {
			qrs = 1
		}
		s.Attrs = append(s.Attrs, AttrStats{
			FK:           at.FK,
			Attr:         at.Table.Name,
			NR:           at.Table.NumRows(),
			QRStar:       qrs,
			ClosedDomain: at.ClosedDomain,
		})
	}
	return s, nil
}

// CollectStatsChunked is CollectStats. chunkSize is ignored: the target
// scan is one pass over the in-memory column.
//
// Deprecated: use CollectStats.
func CollectStatsChunked(d *dataset.Dataset, chunkSize int) (*DatasetStats, error) {
	return CollectStats(d)
}

// DecideFromStats evaluates the advisor's rules over pre-collected
// sufficient statistics, returning one Decision per attribute table in
// declaration order. It never touches data: this is the decision-service
// hot path, O(#attribute tables) arithmetic per call.
func (a *Advisor) DecideFromStats(s *DatasetStats) ([]Decision, error) {
	nTrain := int(a.trainFraction() * float64(s.NumRows))
	if nTrain <= 0 {
		return nil, fmt.Errorf("core: dataset %q leaves no training rows", s.Name)
	}
	th := a.thresholds()

	// Appendix D guard: refuse all avoidance under malign target skew.
	guardTripped := !a.DisableEntropyGuard && s.TargetEntropy < EntropyGuardBits

	decisions := make([]Decision, 0, len(s.Attrs))
	for _, at := range s.Attrs {
		dec := Decision{FK: at.FK, Attr: at.Attr, DFK: at.NR, QRStar: at.QRStar}
		if tr, err := TupleRatio(nTrain, at.NR); err == nil {
			dec.TR = tr
		}
		if ror, err := ROR(nTrain, dec.DFK, min(at.QRStar, dec.DFK), a.delta()); err == nil {
			dec.ROR = ror
		}
		switch {
		case !at.ClosedDomain:
			dec.Considered = false
			dec.Reason = "foreign key domain is not closed; FK cannot represent the foreign features"
		case guardTripped:
			dec.Considered = false
			dec.Reason = fmt.Sprintf("H(Y) below %.2g bits: conservative malign-skew guard (Appendix D)", EntropyGuardBits)
		default:
			dec.Considered = true
			switch a.Rule {
			case TRRule:
				dec.Avoid = dec.TR >= th.Tau
				if !dec.Avoid {
					dec.Reason = fmt.Sprintf("TR %.2f < τ %.2f", dec.TR, th.Tau)
				}
			case RORRule:
				dec.Avoid = dec.ROR <= th.Rho
				if !dec.Avoid {
					dec.Reason = fmt.Sprintf("ROR %.2f > ρ %.2f", dec.ROR, th.Rho)
				}
			default:
				return nil, fmt.Errorf("core: unknown rule %d", a.Rule)
			}
		}
		decisions = append(decisions, dec)
	}
	return decisions, nil
}
