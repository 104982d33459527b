package core

import (
	"reflect"
	"testing"
)

// TestDecideFromStatsMatchesDecide pins the refactor invariant: collecting
// sufficient statistics once and deciding from them must be observationally
// identical to the original single-pass Decide, across rules, thresholds,
// the entropy guard, and open-domain FKs.
func TestDecideFromStatsMatchesDecide(t *testing.T) {
	advisors := []*Advisor{
		{},
		{Rule: RORRule},
		{Thresholds: RelaxedThresholds, TrainFraction: 0.8},
		{DisableEntropyGuard: true},
	}
	for _, skewY := range []bool{false, true} {
		d := fixture(2000, 40, 400, skewY)
		stats, err := CollectStats(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, adv := range advisors {
			direct, err := adv.Decide(d)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := adv.DecideFromStats(stats)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, cached) {
				t.Errorf("advisor %+v (skewY=%v): cached decisions diverge:\n%+v\n%+v", adv, skewY, direct, cached)
			}
		}
	}
}

func TestCollectStatsShape(t *testing.T) {
	d := fixture(2000, 40, 400, false)
	s, err := CollectStats(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != d.Name || s.NumRows != d.NumRows() || len(s.Attrs) != len(d.Attrs) {
		t.Fatalf("stats header = %+v", s)
	}
	if s.TargetEntropy <= 0 {
		t.Errorf("TargetEntropy = %v, want > 0 for a balanced target", s.TargetEntropy)
	}
	for i, at := range d.Attrs {
		got := s.Attrs[i]
		if got.FK != at.FK || got.Attr != at.Table.Name || got.NR != at.Table.NumRows() {
			t.Errorf("attr %d stats = %+v", i, got)
		}
		if got.QRStar < 1 {
			t.Errorf("attr %d QRStar = %d", i, got.QRStar)
		}
	}
}

func TestDecideFromStatsValidates(t *testing.T) {
	if _, err := (&Advisor{}).DecideFromStats(&DatasetStats{Name: "empty"}); err == nil {
		t.Error("zero-row stats did not error")
	}
	s := &DatasetStats{Name: "x", NumRows: 100, TargetEntropy: 1,
		Attrs: []AttrStats{{FK: "fk", Attr: "r", NR: 10, QRStar: 2, ClosedDomain: true}}}
	if _, err := (&Advisor{Rule: Rule(42)}).DecideFromStats(s); err == nil {
		t.Error("unknown rule did not error")
	}
}

// TestCollectStatsChunkedBitIdentical pins the deprecated alias to
// CollectStats: whatever chunkSize a caller passes, it must return a
// bit-identical DatasetStats (entropy float included).
func TestCollectStatsChunkedBitIdentical(t *testing.T) {
	for _, skewY := range []bool{false, true} {
		d := fixture(2000, 40, 400, skewY)
		want, err := CollectStats(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []int{1, 7, 500, 100000, 0} {
			got, err := CollectStatsChunked(d, cs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("chunkSize %d (skewY=%v): alias diverges from CollectStats:\n%+v\n%+v", cs, skewY, want, got)
			}
		}
	}
}
