package synth

import (
	"fmt"
	"reflect"
	"testing"

	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
)

// checkTally checks TallyInto against its oracle, nb.NewStats of the design
// SampleInto draws from the same stream: every table cell for cell, and the
// stream left where SampleInto leaves it. It tallies into a nil Stats and
// again into the returned one, which must be reused.
func checkTally(t *testing.T, w *World, n int, seed uint64) {
	t.Helper()
	name := fmt.Sprintf("%v/%v dS=%d dR=%d nR=%d p=%v n=%d seed=%d",
		w.Cfg.Scenario, w.Cfg.Skew, w.Cfg.DS, w.Cfg.DR, w.Cfg.NR, w.Cfg.P, n, seed)
	var got *nb.Stats
	for pass := uint64(0); pass < 2; pass++ {
		wantRNG, gotRNG := stats.NewRNG(seed+pass), stats.NewRNG(seed+pass)
		want := nb.NewStats(w.SampleInto(nil, n, wantRNG))
		prev := got
		got = w.TallyInto(got, n, gotRNG)
		if prev != nil && got != prev {
			t.Fatalf("%s: TallyInto did not recount into its own earlier Stats", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s pass %d: TallyInto = %+v\nNewStats(SampleInto) = %+v", name, pass, got, want)
		}
		if a, b := gotRNG.Uint64(), wantRNG.Uint64(); a != b {
			t.Fatalf("%s pass %d: TallyInto left the stream elsewhere than SampleInto", name, pass)
		}
	}
}

// tallySkews are the FK marginals the tally tests cover: uniform, Zipf at
// s = 0 (uniform weights through the Zipf table) and at s = 2000 (all mass
// on RID 0, so AllXsXr's majority class 1 has none and its draw falls back
// to IntN), and needle-and-thread.
func tallySkews(cfg SimConfig) []SimConfig {
	zipf0, zipf2000, needle := cfg, cfg, cfg
	zipf0.Skew, zipf0.ZipfS = ZipfSkew, 0
	zipf2000.Skew, zipf2000.ZipfS = ZipfSkew, 2000
	needle.Skew, needle.NeedleP = NeedleThreadSkew, 0.5
	return []SimConfig{cfg, zipf0, zipf2000, needle}
}

// TestTallyMatchesSampleAndCount checks TallyInto against nb.NewStats of
// SampleInto's design in every scenario and skew, at d_S ∈ 0..4 and
// d_R ∈ 1..4, for n ∈ {0, 1, 1000} and n_R below, at and above the
// crossover 2·n_R = 1000 where X_R's tables switch from the sum through R
// to per-row counts.
func TestTallyMatchesSampleAndCount(t *testing.T) {
	for _, sc := range []Scenario{OneXr, AllXsXr, XsFkOnly} {
		for dS := 0; dS <= 4; dS++ {
			for dR := 1; dR <= 4; dR++ {
				for _, nR := range []int{499, 500, 501} {
					base := SimConfig{Scenario: sc, DS: dS, DR: dR, NR: nR, P: 0.2}
					for _, cfg := range tallySkews(base) {
						w := mustWorld(t, cfg, uint64(dS*10+dR))
						if sc == AllXsXr && cfg.ZipfS == 2000 && w.voterFK[1] != nil {
							t.Fatal("zipf s=2000: majority class 1 carries FK mass, so the IntN fallback is not exercised")
						}
						for _, n := range []int{0, 1, 1000} {
							checkTally(t, w, n, uint64(n+nR))
						}
					}
				}
			}
		}
	}
}

// TestTallyReshapes checks that TallyInto allocates fresh Stats for Stats
// of another shape, and recounts a reused one without allocating.
func TestTallyReshapes(t *testing.T) {
	a := mustWorld(t, baseCfg(), 1)
	other := baseCfg()
	other.NR = 41
	b := mustWorld(t, other, 1)
	s := a.TallyInto(nil, 100, stats.NewRNG(1))
	if got := b.TallyInto(s, 100, stats.NewRNG(1)); got == s || !reflect.DeepEqual(got, nb.NewStats(b.Sample(100, stats.NewRNG(1)))) {
		t.Fatal("TallyInto into another world's Stats did not return fresh Stats of its own")
	}
	rng := stats.NewRNG(2)
	if allocs := testing.AllocsPerRun(10, func() { a.TallyInto(s, 100, rng) }); allocs != 0 {
		t.Errorf("TallyInto into reused Stats allocates %v times", allocs)
	}
}

// FuzzTally checks TallyInto against nb.NewStats of SampleInto's design on
// worlds decoded from the input: any scenario and skew of tallySkews, d_S ∈
// 0..4, d_R ∈ 1..4, n_R ∈ [2, 1201], noise p ∈ [0, 1] in steps of 1/255
// and n ∈ [0, 2000], so both sides of the crossover 2·n_R = n are reached.
func FuzzTally(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), uint8(3), uint16(38), uint8(25), uint16(1000), uint64(1))
	f.Add(uint8(1), uint8(2), uint8(4), uint8(0), uint16(498), uint8(51), uint16(1000), uint64(2))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1), uint16(499), uint8(0), uint16(1000), uint64(3))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(2), uint16(0), uint8(255), uint16(1), uint64(4))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(3), uint16(1199), uint8(128), uint16(0), uint64(5))
	f.Fuzz(func(t *testing.T, sc, skew, dS, dR uint8, nR uint16, p uint8, n uint16, seed uint64) {
		base := SimConfig{
			Scenario: Scenario(sc % 3), DS: int(dS % 5), DR: 1 + int(dR%4),
			NR: 2 + int(nR%1200), P: float64(p) / 255,
		}
		cfg := tallySkews(base)[skew%4]
		w, err := NewWorld(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkTally(t, w, int(n%2001), seed)
	})
}
