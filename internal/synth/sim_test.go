package synth

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"hamlet/internal/dataset"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

func mustWorld(t *testing.T, cfg SimConfig, seed uint64) *World {
	t.Helper()
	w, err := NewWorld(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func baseCfg() SimConfig {
	return SimConfig{Scenario: OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}
}

func TestConfigValidate(t *testing.T) {
	with := func(edit func(*SimConfig)) SimConfig {
		c := baseCfg()
		edit(&c)
		return c
	}
	good := map[string]SimConfig{
		"base":        baseCfg(),
		"no X_S":      with(func(c *SimConfig) { c.DS = 0 }),
		"noiseless":   with(func(c *SimConfig) { c.P = 0 }),
		"zipf s=0":    with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, 0 }),
		"zipf s=2000": with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, 2000 }),
		"needle 0.5":  with(func(c *SimConfig) { c.Skew, c.NeedleP = NeedleThreadSkew, 0.5 }),
		// Only the chosen skew's parameter is checked.
		"no skew, NaN zipf": with(func(c *SimConfig) { c.ZipfS, c.NeedleP = math.NaN(), math.NaN() }),
	}
	for name, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := NewWorld(c, 1); err != nil {
			t.Errorf("%s: NewWorld: %v", name, err)
		}
	}
	bad := map[string]SimConfig{
		"negative dS":      with(func(c *SimConfig) { c.DS = -1 }),
		"no X_R":           with(func(c *SimConfig) { c.DR = 0 }),
		"nR=1":             with(func(c *SimConfig) { c.NR = 1 }),
		"p>1":              with(func(c *SimConfig) { c.P = 1.5 }),
		"p<0":              with(func(c *SimConfig) { c.P = -0.1 }),
		"NaN p":            with(func(c *SimConfig) { c.P = math.NaN() }),
		"unknown scenario": with(func(c *SimConfig) { c.Scenario = Scenario(7) }),
		"unknown skew":     with(func(c *SimConfig) { c.Skew = Skew(7) }),
		"needle 0":         with(func(c *SimConfig) { c.Skew, c.NeedleP = NeedleThreadSkew, 0 }),
		"needle 1":         with(func(c *SimConfig) { c.Skew, c.NeedleP = NeedleThreadSkew, 1 }),
		"NaN needle":       with(func(c *SimConfig) { c.Skew, c.NeedleP = NeedleThreadSkew, math.NaN() }),
		"NaN zipf":         with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, math.NaN() }),
		"zipf -Inf":        with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, math.Inf(-1) }),
		"zipf +Inf":        with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, math.Inf(1) }),
		"zipf -2000":       with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, -2000 }),
		"zipf -0.5":        with(func(c *SimConfig) { c.Skew, c.ZipfS = ZipfSkew, -0.5 }),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted: %+v", name, c)
		}
		// NewWorld refuses the same configs with an error, not a panic.
		if _, err := NewWorld(c, 1); err == nil {
			t.Errorf("%s: NewWorld accepted %+v", name, c)
		}
	}
}

func TestWorldShape(t *testing.T) {
	w := mustWorld(t, baseCfg(), 1)
	if len(w.R) != 40 || len(w.R[0]) != 4 {
		t.Fatalf("R shape = %dx%d", len(w.R), len(w.R[0]))
	}
	xs, fk, xr := w.FeatureLayout()
	if len(xs) != 2 || fk != 2 || len(xr) != 4 {
		t.Fatalf("layout = %v %v %v", xs, fk, xr)
	}
	if len(w.UseAllFeatures()) != 7 || len(w.NoJoinFeatures()) != 3 || len(w.NoFKFeatures()) != 6 {
		t.Fatal("model-class feature sets wrong")
	}
}

func TestSampleRespectsFD(t *testing.T) {
	w := mustWorld(t, baseCfg(), 2)
	rng := stats.NewRNG(3)
	m := w.Sample(500, rng)
	if m.NumRows() != 500 || m.NumFeatures() != 7 {
		t.Fatalf("design shape = (%d,%d)", m.NumRows(), m.NumFeatures())
	}
	_, fkIdx, xr := w.FeatureLayout()
	for i := 0; i < 500; i++ {
		fk := m.Features[fkIdx].Data[i]
		for j, col := range xr {
			if m.Features[col].Data[i] != w.R[fk][j] {
				t.Fatalf("FD FK→X_R violated at row %d feature %d", i, j)
			}
		}
	}
	if !m.Features[fkIdx].IsFK {
		t.Fatal("FK feature not marked")
	}
}

func TestOneXrLabelNoise(t *testing.T) {
	w := mustWorld(t, baseCfg(), 4)
	rng := stats.NewRNG(5)
	m := w.Sample(20000, rng)
	_, _, xr := w.FeatureLayout()
	// P(Y=0|X_r=0) must be ≈ p = 0.1.
	n0, y0 := 0, 0
	for i := 0; i < m.NumRows(); i++ {
		if m.Features[xr[0]].Data[i] == 0 {
			n0++
			if m.Y[i] == 0 {
				y0++
			}
		}
	}
	if n0 == 0 {
		t.Fatal("X_r never 0")
	}
	f := float64(y0) / float64(n0)
	if math.Abs(f-0.1) > 0.02 {
		t.Fatalf("P(Y=0|X_r=0) = %v, want ≈0.1", f)
	}
}

func TestTrueConditionalOneXr(t *testing.T) {
	w := mustWorld(t, baseCfg(), 6)
	rng := stats.NewRNG(7)
	m := w.Sample(100, rng)
	_, _, xr := w.FeatureLayout()
	for i := 0; i < 100; i++ {
		p1 := w.TrueConditional(m, i)
		if m.Features[xr[0]].Data[i] == 0 {
			if math.Abs(p1-0.9) > 1e-12 {
				t.Fatalf("P(Y=1|X_r=0) = %v", p1)
			}
		} else if math.Abs(p1-0.1) > 1e-12 {
			t.Fatalf("P(Y=1|X_r=1) = %v", p1)
		}
	}
}

func TestAllXsXrSampling(t *testing.T) {
	cfg := baseCfg()
	cfg.Scenario = AllXsXr
	w := mustWorld(t, cfg, 8)
	rng := stats.NewRNG(9)
	m := w.Sample(20000, rng)
	// Majority bit of X_R must agree with Y about 1−p of the time.
	_, fkIdx, _ := w.FeatureLayout()
	agree := 0
	for i := 0; i < m.NumRows(); i++ {
		if w.majority[m.Features[fkIdx].Data[i]] == m.Y[i] {
			agree++
		}
	}
	f := float64(agree) / float64(m.NumRows())
	if math.Abs(f-0.9) > 0.02 {
		t.Fatalf("majority/Y agreement = %v, want ≈0.9", f)
	}
	// X_S features must also agree with Y about 1−p of the time.
	xs, _, _ := w.FeatureLayout()
	agree = 0
	for i := 0; i < m.NumRows(); i++ {
		if m.Features[xs[0]].Data[i] == m.Y[i] {
			agree++
		}
	}
	f = float64(agree) / float64(m.NumRows())
	if math.Abs(f-0.9) > 0.02 {
		t.Fatalf("X_S/Y agreement = %v, want ≈0.9", f)
	}
}

func TestXsFkOnlySampling(t *testing.T) {
	cfg := baseCfg()
	cfg.Scenario = XsFkOnly
	w := mustWorld(t, cfg, 10)
	rng := stats.NewRNG(11)
	m := w.Sample(20000, rng)
	_, fkIdx, _ := w.FeatureLayout()
	agree := 0
	for i := 0; i < m.NumRows(); i++ {
		if w.ridLabel[m.Features[fkIdx].Data[i]] == m.Y[i] {
			agree++
		}
	}
	f := float64(agree) / float64(m.NumRows())
	if math.Abs(f-0.9) > 0.02 {
		t.Fatalf("ridLabel/Y agreement = %v, want ≈0.9", f)
	}
}

func TestTrueConditionalIsCalibrated(t *testing.T) {
	// Empirical check: among rows with P(Y=1|x) ∈ [a,b), the empirical
	// rate of Y=1 must fall in roughly the same band.
	for _, scen := range []Scenario{OneXr, AllXsXr, XsFkOnly} {
		cfg := baseCfg()
		cfg.Scenario = scen
		w := mustWorld(t, cfg, 12)
		rng := stats.NewRNG(13)
		m := w.Sample(40000, rng)
		var lowN, lowY, highN, highY int
		for i := 0; i < m.NumRows(); i++ {
			p1 := w.TrueConditional(m, i)
			if p1 < 0.5 {
				lowN++
				lowY += int(m.Y[i])
			} else {
				highN++
				highY += int(m.Y[i])
			}
		}
		if lowN == 0 || highN == 0 {
			t.Fatalf("%v: degenerate conditional split", scen)
		}
		fLow := float64(lowY) / float64(lowN)
		fHigh := float64(highY) / float64(highN)
		if fLow >= 0.5 || fHigh <= 0.5 {
			t.Fatalf("%v: conditional not calibrated: low=%v high=%v", scen, fLow, fHigh)
		}
	}
}

func TestNeedleThreadWorld(t *testing.T) {
	cfg := baseCfg()
	cfg.Skew = NeedleThreadSkew
	cfg.NeedleP = 0.5
	w := mustWorld(t, cfg, 14)
	// Needle RID carries X_r = 0, thread carries X_r = 1.
	if w.R[0][0] != 0 {
		t.Fatal("needle X_r wrong")
	}
	for rid := 1; rid < cfg.NR; rid++ {
		if w.R[rid][0] != 1 {
			t.Fatal("thread X_r wrong")
		}
	}
	rng := stats.NewRNG(15)
	m := w.Sample(20000, rng)
	_, fkIdx, _ := w.FeatureLayout()
	needle := 0
	for i := 0; i < m.NumRows(); i++ {
		if m.Features[fkIdx].Data[i] == 0 {
			needle++
		}
	}
	f := float64(needle) / float64(m.NumRows())
	if math.Abs(f-0.5) > 0.02 {
		t.Fatalf("needle frequency = %v, want ≈0.5", f)
	}
}

func TestZipfWorldSkewsFK(t *testing.T) {
	cfg := baseCfg()
	cfg.Skew = ZipfSkew
	cfg.ZipfS = 2
	w := mustWorld(t, cfg, 16)
	rng := stats.NewRNG(17)
	m := w.Sample(20000, rng)
	_, fkIdx, _ := w.FeatureLayout()
	counts := make([]int, cfg.NR)
	for i := 0; i < m.NumRows(); i++ {
		counts[m.Features[fkIdx].Data[i]]++
	}
	if counts[0] < counts[cfg.NR-1] {
		t.Fatal("Zipf skew should concentrate on low RIDs")
	}
	if float64(counts[0])/float64(m.NumRows()) < 0.4 {
		t.Fatalf("Zipf(s=2) head mass too small: %v", counts[0])
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	w := mustWorld(t, baseCfg(), 18)
	rng := stats.NewRNG(19)
	d, err := w.Dataset("sim", 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 400 || d.NumClasses() != 2 {
		t.Fatal("dataset shape wrong")
	}
	// The joined design matrix must satisfy the FD FK → XR0.
	m, err := d.Materialize(d.JoinAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	tab := relational.NewTable("T")
	fkIdx := m.FeatureIndex("FK")
	xrIdx := m.FeatureIndex("XR0")
	tab.MustAddColumn(&relational.Column{Name: "FK", Card: m.Features[fkIdx].Card, Data: m.Features[fkIdx].Data})
	tab.MustAddColumn(&relational.Column{Name: "XR0", Card: 2, Data: m.Features[xrIdx].Data})
	ok, err := relational.HoldsFD(tab, "FK", "XR0")
	if err != nil || !ok {
		t.Fatalf("FD violated in materialized dataset (err=%v)", err)
	}
}

func TestScenarioAndSkewStrings(t *testing.T) {
	if OneXr.String() != "OneXr" || AllXsXr.String() != "AllXsXr" || XsFkOnly.String() != "XsFkOnly" {
		t.Fatal("scenario strings")
	}
	if Scenario(9).String() == "" || Skew(9).String() == "" {
		t.Fatal("unknown enum strings should not be empty")
	}
	if NoSkew.String() != "none" || ZipfSkew.String() != "zipf" || NeedleThreadSkew.String() != "needle-and-thread" {
		t.Fatal("skew strings")
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := mustWorld(t, baseCfg(), 42)
	b := mustWorld(t, baseCfg(), 42)
	for rid := range a.R {
		for j := range a.R[rid] {
			if a.R[rid][j] != b.R[rid][j] {
				t.Fatal("same-seed worlds differ")
			}
		}
	}
	ma := a.Sample(100, stats.NewRNG(1))
	mb := b.Sample(100, stats.NewRNG(1))
	for i := range ma.Y {
		if ma.Y[i] != mb.Y[i] {
			t.Fatal("same-seed samples differ")
		}
	}
}

// digestDesign hashes a design's labels, cardinalities and cells.
func digestDesign(m *dataset.Design) uint64 {
	h := fnv.New64a()
	put := func(v int32) {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	for _, y := range m.Y {
		put(y)
	}
	for _, f := range m.Features {
		put(int32(f.Card))
		for _, v := range f.Data {
			put(v)
		}
	}
	return h.Sum64()
}

// sampleCases covers every scenario under every FK skew.
func sampleCases() []SimConfig {
	return shapeCases(3, 40)
}

// shapeCases is every scenario under every FK skew at one d_S and n_R.
func shapeCases(dS, nR int) []SimConfig {
	var out []SimConfig
	for _, sc := range []Scenario{OneXr, AllXsXr, XsFkOnly} {
		for _, sk := range []Skew{NoSkew, ZipfSkew, NeedleThreadSkew} {
			out = append(out, SimConfig{Scenario: sc, DS: dS, DR: 4, NR: nR, P: 0.1, Skew: sk, ZipfS: 2, NeedleP: 0.5})
		}
	}
	return out
}

// TestSampleDigestsPinned pins sampled designs to digests recorded from
// earlier samplers: the first nine when FK was drawn by a linear scan over
// the weights, the rest from the binary-search sampler the guide table
// replaced. Every sampler must draw the same rows from the same stream, in
// every scenario and skew, with and without X_S, with n_R large enough for
// a guide table of 8192 buckets, and with a Zipf exponent large enough that
// one majority class has no FK mass and its draw falls back to IntN.
func TestSampleDigestsPinned(t *testing.T) {
	type pinned struct {
		cases []SimConfig
		want  []uint64
	}
	var zipf2000 []SimConfig
	for _, sc := range []Scenario{OneXr, AllXsXr, XsFkOnly} {
		zipf2000 = append(zipf2000, SimConfig{Scenario: sc, DS: 3, DR: 4, NR: 40, P: 0.1, Skew: ZipfSkew, ZipfS: 2000})
	}
	for _, pin := range []pinned{
		{sampleCases(), []uint64{
			0x9425a9d687d387eb, 0xfaf2905c720d0a80, 0x1078f0e13cc78702, // OneXr
			0xbae85b3b672397aa, 0xdaa6193b26150ffb, 0x61fc6187e6226276, // AllXsXr
			0x97ad34eafdaec76b, 0x60e096a79e1ca881, 0x597d8b063df3d452, // XsFkOnly
		}},
		{shapeCases(0, 40), []uint64{
			0x45308574fc60e20b, 0xe08a4d29c790fcbe, 0x6161b73ddf6eb73e, // OneXr
			0xccf119be021f326a, 0x8f779353f07d1065, 0x50ec43f47c2cbe41, // AllXsXr
			0x4c8403671f29b87a, 0x20679c8e552ef5fe, 0x45699178a65f5c4f, // XsFkOnly
		}},
		{shapeCases(3, 5000), []uint64{
			0xe428314015401a6d, 0xb55227cd6bef0dc4, 0x4009c05eb1c3944f, // OneXr
			0xf0b53aec625bf579, 0x82a72d698460b8a4, 0x7a815375372c806d, // AllXsXr
			0xffe5a63c2b4ebc9d, 0x5a4e93f5cb619cf4, 0x69dee9141e4ec85f, // XsFkOnly
		}},
		{zipf2000, []uint64{0xf71f3f7dd36b552e, 0x4121f1fa66edd523, 0x59cb6c761f6c2f4e}},
	} {
		for i, cfg := range pin.cases {
			w := mustWorld(t, cfg, 11)
			if got := digestDesign(w.Sample(300, stats.NewRNG(5))); got != pin.want[i] {
				t.Errorf("%v/%v dS=%d nR=%d s=%v: sample digest %#016x, want %#016x",
					cfg.Scenario, cfg.Skew, cfg.DS, cfg.NR, cfg.ZipfS, got, pin.want[i])
			}
		}
	}
	if w := mustWorld(t, zipf2000[1], 11); w.voterFK[1] != nil {
		t.Fatal("zipf s=2000: majority class 1 carries FK mass, so the IntN fallback is not exercised")
	}
}

// TestSampleIntoMatchesSample checks that redrawing into a reused design
// gives Sample's design, leaves the stream where Sample leaves it, and
// allocates nothing; a nil or mis-shaped design gets a fresh one.
func TestSampleIntoMatchesSample(t *testing.T) {
	for _, cfg := range sampleCases() {
		w := mustWorld(t, cfg, 11)
		buf := w.Sample(200, stats.NewRNG(1))
		for seed := uint64(2); seed < 5; seed++ {
			want, wantRNG := w.Sample(200, stats.NewRNG(seed)), stats.NewRNG(seed)
			w.Sample(200, wantRNG)
			gotRNG := stats.NewRNG(seed)
			if got := w.SampleInto(buf, 200, gotRNG); got != buf {
				t.Fatalf("%v/%v: SampleInto did not reuse a same-shape design", cfg.Scenario, cfg.Skew)
			}
			if !reflect.DeepEqual(buf, want) {
				t.Fatalf("%v/%v seed %d: SampleInto differs from Sample", cfg.Scenario, cfg.Skew, seed)
			}
			if gotRNG.Uint64() != wantRNG.Uint64() {
				t.Fatalf("%v/%v seed %d: SampleInto left the stream elsewhere than Sample", cfg.Scenario, cfg.Skew, seed)
			}
		}
		rng := stats.NewRNG(9)
		if allocs := testing.AllocsPerRun(10, func() { w.SampleInto(buf, 200, rng) }); allocs != 0 {
			t.Errorf("%v/%v: SampleInto into a reused design allocates %v times", cfg.Scenario, cfg.Skew, allocs)
		}
		for name, other := range map[string]*dataset.Design{"nil": nil, "100-row": w.Sample(100, stats.NewRNG(1))} {
			if got := w.SampleInto(other, 200, stats.NewRNG(3)); got == other || !reflect.DeepEqual(got, w.Sample(200, stats.NewRNG(3))) {
				t.Fatalf("%v/%v: SampleInto into a %s design did not return a fresh Sample", cfg.Scenario, cfg.Skew, name)
			}
		}
	}
}

// TestTrueConditionalAllocFree pins the per-test-row call of the
// bias–variance decomposition to zero allocations in every scenario.
func TestTrueConditionalAllocFree(t *testing.T) {
	for _, sc := range []Scenario{OneXr, AllXsXr, XsFkOnly} {
		cfg := baseCfg()
		cfg.Scenario = sc
		w := mustWorld(t, cfg, 4)
		m := w.Sample(50, stats.NewRNG(6))
		row := 0
		allocs := testing.AllocsPerRun(100, func() {
			w.TrueConditional(m, row%50)
			row++
		})
		if allocs != 0 {
			t.Errorf("%v: TrueConditional allocates %v times per call", sc, allocs)
		}
	}
}
