// Package synth generates the controlled datasets Hamlet-Go's experiments
// run on: the paper's Monte Carlo simulation scenarios (§4.1 and Appendix D)
// and schema-faithful mimics of the seven real datasets of §5 (see mimic.go).
//
// A simulation World is one realization of the paper's generative setting: a
// fixed attribute table R of n_R rows × d_R boolean features, a foreign-key
// distribution (uniform, Zipfian, or needle-and-thread), and a true
// distribution P(Y, X) chosen by scenario. Labeled examples are sampled
// i.i.d.; the world exposes the exact conditional P(Y|x) so the bias–
// variance harness can compute noise and optimal predictions exactly.
package synth

import (
	"fmt"
	"math"

	"hamlet/internal/dataset"
	"hamlet/internal/ml/nb"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// Scenario selects which features participate in the true distribution.
type Scenario int

const (
	// OneXr: a lone foreign feature X_r ∈ X_R captures the concept, with
	// P(Y=0|X_r=0) = P(Y=1|X_r=1) = p (Figure 3). This is the worst case
	// for avoiding the join.
	OneXr Scenario = iota
	// AllXsXr: all of X_S and X_R are part of the true distribution
	// (Figure 11): Y flips a coin, X_S features agree with Y with
	// probability 1−p each, and FK is drawn from the RIDs whose X_R
	// majority vote agrees with Y with probability 1−p.
	AllXsXr
	// XsFkOnly: only X_S and FK matter; X_R is pure noise with respect to
	// Y beyond what FK already encodes (the appendix's third scenario).
	// Each RID carries a latent label bit; Y agrees with it with
	// probability 1−p, and X_S features agree with Y with probability 1−p.
	XsFkOnly
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case OneXr:
		return "OneXr"
	case AllXsXr:
		return "AllXsXr"
	case XsFkOnly:
		return "XsFkOnly"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Skew selects the foreign-key marginal distribution (Appendix D).
type Skew int

const (
	// NoSkew draws FK uniformly.
	NoSkew Skew = iota
	// ZipfSkew draws FK from a Zipf distribution (benign skew).
	ZipfSkew
	// NeedleThreadSkew draws FK from the paper's malign needle-and-thread
	// distribution: the needle RID carries mass p and one X_r value; the
	// thread spreads 1−p over the rest, all carrying the other X_r value.
	NeedleThreadSkew
)

// String implements fmt.Stringer.
func (s Skew) String() string {
	switch s {
	case NoSkew:
		return "none"
	case ZipfSkew:
		return "zipf"
	case NeedleThreadSkew:
		return "needle-and-thread"
	}
	return fmt.Sprintf("Skew(%d)", int(s))
}

// SimConfig describes one simulation setting (one point of a parameter
// sweep).
type SimConfig struct {
	// Scenario selects the true distribution.
	Scenario Scenario
	// DS is d_S, the number of boolean entity-table features.
	DS int
	// DR is d_R, the number of boolean attribute-table features.
	DR int
	// NR is n_R = |D_FK|, the attribute-table size.
	NR int
	// P is the scenario noise parameter (the paper uses 0.1).
	P float64
	// Skew selects the FK marginal; NoSkew unless stated.
	Skew Skew
	// ZipfS is the Zipf exponent for ZipfSkew (the paper uses 2).
	ZipfS float64
	// NeedleP is the needle mass for NeedleThreadSkew (the paper uses 0.5).
	NeedleP float64
}

// Validate checks the configuration. The comparisons are written so that a
// NaN parameter fails them.
func (c SimConfig) Validate() error {
	switch c.Scenario {
	case OneXr, AllXsXr, XsFkOnly:
	default:
		return fmt.Errorf("synth: unknown scenario %d", c.Scenario)
	}
	if c.DS < 0 || c.DR < 1 {
		return fmt.Errorf("synth: need dS ≥ 0 and dR ≥ 1, got dS=%d dR=%d", c.DS, c.DR)
	}
	if c.NR < 2 {
		return fmt.Errorf("synth: need nR ≥ 2, got %d", c.NR)
	}
	if !(c.P >= 0 && c.P <= 1) {
		return fmt.Errorf("synth: noise p must lie in [0,1], got %v", c.P)
	}
	switch c.Skew {
	case NoSkew:
	case ZipfSkew:
		if !(c.ZipfS >= 0 && c.ZipfS <= math.MaxFloat64) {
			return fmt.Errorf("synth: Zipf exponent must be finite and ≥ 0, got %v", c.ZipfS)
		}
	case NeedleThreadSkew:
		if !(c.NeedleP > 0 && c.NeedleP < 1) {
			return fmt.Errorf("synth: needle probability must lie in (0,1), got %v", c.NeedleP)
		}
	default:
		return fmt.Errorf("synth: unknown skew %d", c.Skew)
	}
	return nil
}

// World is one realization of a simulation setting: the fixed attribute
// table, the FK marginal, and the concept.
type World struct {
	// Cfg is the generating configuration.
	Cfg SimConfig
	// R[rid][j] is attribute table cell (rid, feature j), 0 or 1.
	R [][]int32
	// xr[j] is R's column j, xr[j][rid] = R[rid][j]: the sampling kernel
	// reads X_R by FK from it. The columns are windows of one array.
	xr [][]int32
	// cards holds the FeatureLayout's cardinalities.
	cards []int
	// majority[rid] is the X_R majority vote used by AllXsXr.
	majority []int32
	// ridLabel[rid] is the latent per-RID label bit used by XsFkOnly.
	ridLabel []int32
	// fk draws FK from its marginal.
	fk *stats.Categorical
	// votersByBit[b] lists RIDs whose majority equals b. Only AllXsXr
	// worlds build it and voterFK.
	votersByBit [2][]int
	// voterFK[b] draws an index into votersByBit[b] from the FK marginal
	// restricted to those RIDs; nil when that restriction has no mass, in
	// which case the draw is uniform.
	voterFK [2]*stats.Categorical
}

// NewWorld realizes a world from the configuration and seed. The attribute
// table, FK marginal and concept are fixed for the world's lifetime; only
// example sampling consumes randomness afterwards.
func NewWorld(cfg SimConfig, seed uint64) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	w := &World{Cfg: cfg}
	cells := make([]int32, cfg.NR*cfg.DR)
	w.R = make([][]int32, cfg.NR)
	for rid := range w.R {
		row := cells[rid*cfg.DR : (rid+1)*cfg.DR : (rid+1)*cfg.DR]
		for j := range row {
			row[j] = int32(rng.IntN(2))
		}
		w.R[rid] = row
	}
	if cfg.Skew == NeedleThreadSkew {
		// The needle RID (0) carries one X_r value, the thread the other.
		w.R[0][0] = 0
		for rid := 1; rid < cfg.NR; rid++ {
			w.R[rid][0] = 1
		}
	} else {
		// Guarantee X_r is non-constant so the concept exists.
		w.R[0][0] = 0
		w.R[cfg.NR-1][0] = 1
	}
	cols := make([]int32, cfg.DR*cfg.NR)
	w.xr = make([][]int32, cfg.DR)
	for j := range w.xr {
		w.xr[j] = cols[j*cfg.NR : (j+1)*cfg.NR : (j+1)*cfg.NR]
		for rid, row := range w.R {
			w.xr[j][rid] = row[j]
		}
	}
	w.cards = make([]int, cfg.DS+1+cfg.DR)
	for f := range w.cards {
		w.cards[f] = 2
	}
	w.cards[cfg.DS] = cfg.NR
	w.majority = make([]int32, cfg.NR)
	w.ridLabel = make([]int32, cfg.NR)
	for rid, row := range w.R {
		ones := 0
		for _, v := range row {
			ones += int(v)
		}
		if 2*ones > len(row) || (2*ones == len(row) && rid%2 == 1) {
			w.majority[rid] = 1
		}
		w.ridLabel[rid] = int32(rng.IntN(2))
	}
	// Ensure both majority classes are inhabited so AllXsXr sampling is
	// well defined.
	w.majority[0] = 0
	w.majority[cfg.NR-1] = 1
	var fkWeights []float64
	switch cfg.Skew {
	case NoSkew:
		fkWeights = make([]float64, cfg.NR)
		for i := range fkWeights {
			fkWeights[i] = 1
		}
	case ZipfSkew:
		fkWeights = stats.NewZipf(cfg.NR, cfg.ZipfS).Probs()
	case NeedleThreadSkew:
		fkWeights = stats.NeedleAndThread{N: cfg.NR, NeedleProb: cfg.NeedleP}.Probs()
	}
	// The samplers' tables are built once here; every draw is then one word
	// and an O(1) expected guide-table walk.
	w.fk = stats.NewCategorical(fkWeights)
	if cfg.Scenario != AllXsXr {
		return w, nil
	}
	// AllXsXr indexes RIDs by their majority bit.
	for rid := range w.R {
		w.votersByBit[w.majority[rid]] = append(w.votersByBit[w.majority[rid]], rid)
	}
	for b, voters := range w.votersByBit {
		weights := make([]float64, len(voters))
		total := 0.0
		for i, rid := range voters {
			weights[i] = fkWeights[rid]
			total += weights[i]
		}
		if total > 0 {
			w.voterFK[b] = stats.NewCategorical(weights)
		}
	}
	return w, nil
}

// FeatureLayout describes the column order of sampled designs:
// X_S features first, then FK, then X_R features.
func (w *World) FeatureLayout() (xs []int, fk int, xr []int) {
	for i := 0; i < w.Cfg.DS; i++ {
		xs = append(xs, i)
	}
	fk = w.Cfg.DS
	for i := 0; i < w.Cfg.DR; i++ {
		xr = append(xr, w.Cfg.DS+1+i)
	}
	return xs, fk, xr
}

// UseAllFeatures returns all feature indices (the paper's UseAll model
// class).
func (w *World) UseAllFeatures() []int {
	xs, fk, xr := w.FeatureLayout()
	out := append(append([]int(nil), xs...), fk)
	return append(out, xr...)
}

// NoJoinFeatures returns X_S ∪ {FK} (the paper's NoJoin model class).
func (w *World) NoJoinFeatures() []int {
	xs, fk, _ := w.FeatureLayout()
	return append(append([]int(nil), xs...), fk)
}

// NoFKFeatures returns X_S ∪ X_R (the paper's NoFK model class).
func (w *World) NoFKFeatures() []int {
	xs, _, xr := w.FeatureLayout()
	return append(append([]int(nil), xs...), xr...)
}

// Sample draws n i.i.d. labeled examples and materializes them as a design
// matrix with the FeatureLayout column order.
func (w *World) Sample(n int, rng *stats.RNG) *dataset.Design {
	return w.SampleInto(nil, n, rng)
}

// SampleInto is Sample drawing into m's storage: when m came from an earlier
// Sample or SampleInto of this world with the same n, every cell of m is
// overwritten in place and m is returned; otherwise (m nil, or another
// shape) a new design is allocated. Either way it consumes rng exactly as
// Sample(n, rng) does, and the result equals Sample's.
//
// Each row consumes the stream in a fixed order: the scenario's label and FK
// draws, then one word per X_S cell in column order. X_R, which FK
// determines, takes no words; it is gathered from R column by column after
// the row loop.
func (w *World) SampleInto(m *dataset.Design, n int, rng *stats.RNG) *dataset.Design {
	cfg := w.Cfg
	if m == nil || len(m.Y) != n || len(m.Features) != cfg.DS+1+cfg.DR || m.Features[cfg.DS].Card != cfg.NR {
		m = w.newDesign(n)
	}
	// Columns follow the FeatureLayout: X_S in [0, DS), FK at DS, X_R
	// after it.
	fk := m.Features[cfg.DS].Data[:n]
	w.draw(n, rng, &rowSink{y: m.Y[:n], fk: fk, xs: m.Features[:cfg.DS]})
	for j, col := range w.xr {
		dst := m.Features[cfg.DS+1+j].Data[:n]
		for i, rid := range fk {
			dst[i] = col[rid]
		}
	}
	return m
}

// TallyInto draws n rows as SampleInto does, taking every word of rng that
// SampleInto takes, and returns their Naive Bayes sufficient statistics
// without storing a row: the Stats equal nb.NewStats of the design
// SampleInto(nil, n, rng) would return, cell for cell. It recounts into s
// when s has this world's shape, as Stats from an earlier TallyInto of the
// world do, and allocates Stats otherwise; either way nb.stats_builds
// counts one tabulation.
//
// Each row adds its label, FK and X_S cells to their tables. X_R's tables
// follow FK's through the FD FK → X_R: summing FK's class × n_R table
// through R (nb.SumThrough) costs 2·n_R additions per column, counting each
// row's X_R cells n, so X_R is summed through R when 2·n_R ≤ n and counted
// per row otherwise. Both give the same integers.
func (w *World) TallyInto(s *nb.Stats, n int, rng *stats.RNG) *nb.Stats {
	cfg := w.Cfg
	s = nb.Recount(s, n, 2, w.cards)
	fk, xr := s.Counts[cfg.DS], s.Counts[cfg.DS+1:]
	out := rowSink{tally: true, fkTab: fk, xsTab: s.Counts[:cfg.DS], nR: cfg.NR}
	throughFD := 2*cfg.NR <= n
	if !throughFD {
		out.xr, out.xrTab = w.xr, xr
	}
	w.draw(n, rng, &out)
	for c := range s.ClassCounts {
		for _, k := range fk[c*cfg.NR : (c+1)*cfg.NR] {
			s.ClassCounts[c] += k
		}
	}
	if throughFD {
		for j, tab := range xr {
			nb.SumThrough(tab, fk, 2, w.xr[j], 2)
		}
	}
	return s
}

// rowSink takes the rows of one draw: it stores each row's cells into
// design columns or, with tally set, adds them to count tables laid out
// like nb.Stats.Counts. The switch holds for the whole draw, so its branch
// is always predicted, and SampleInto and TallyInto share one row loop.
type rowSink struct {
	tally bool
	// y, fk and the X_S columns xs receive the cells when storing.
	y, fk []int32
	xs    []dataset.Feature
	// fkTab and the X_S tables xsTab receive the counts when tallying, FK's
	// over nR RIDs; xrTab receives X_R's counts, read from R's columns xr,
	// when they are counted per row (xr nil otherwise).
	fkTab        []int
	xsTab, xrTab [][]int
	xr           [][]int32
	nR           int
}

// row takes row i's label and FK.
func (s *rowSink) row(i int, label int32, rid int) {
	if !s.tally {
		s.y[i], s.fk[i] = label, int32(rid)
		return
	}
	s.fkTab[int(label)*s.nR+rid]++
	for j, col := range s.xr {
		s.xrTab[j][2*label+col[rid]]++
	}
}

// cell takes row i's X_S cell j, v, given the row's label.
func (s *rowSink) cell(i, j int, label, v int32) {
	if !s.tally {
		s.xs[j].Data[i] = v
		return
	}
	s.xsTab[j][2*label+v]++
}

// draw is the sampling kernel: it draws n rows of the scenario, taking each
// row's words in the order SampleInto documents, and hands every row to
// out. The scenario is chosen once per call, and every word is drawn and
// read by inlined code: RNG.Uint64, Categorical.SampleWord and Coin.Flip,
// whose test is exactly Bernoulli's.
func (w *World) draw(n int, rng *stats.RNG, out *rowSink) {
	cfg := w.Cfg
	dS, noise := cfg.DS, stats.NewCoin(cfg.P)
	switch cfg.Scenario {
	case OneXr:
		// P(Y=0|X_r=0) = P(Y=1|X_r=1) = p, and X_S cells are fair coins.
		fk, xr0 := w.fk, w.xr[0]
		for i := 0; i < n; i++ {
			rid := fk.SampleWord(rng.Uint64())
			label := xr0[rid] ^ 1 ^ bit(noise.Flip(rng.Uint64()))
			out.row(i, label, rid)
			for j := 0; j < dS; j++ {
				out.cell(i, j, label, int32(rng.Uint64()&1))
			}
		}
	case AllXsXr:
		// Y is a fair coin; FK is drawn from the RIDs whose majority vote
		// is Y flipped with probability p, weighted by the FK marginal
		// restricted to them; X_S cells echo Y through the p-noisy channel.
		for i := 0; i < n; i++ {
			label := int32(rng.Uint64() & 1)
			target := label ^ bit(noise.Flip(rng.Uint64()))
			voters := w.votersByBit[target]
			var rid int
			if cat := w.voterFK[target]; cat != nil {
				rid = voters[cat.SampleWord(rng.Uint64())]
			} else {
				rid = voters[rng.IntN(len(voters))]
			}
			out.row(i, label, rid)
			for j := 0; j < dS; j++ {
				out.cell(i, j, label, label^bit(noise.Flip(rng.Uint64())))
			}
		}
	case XsFkOnly:
		// Y is FK's latent label flipped with probability p; X_S cells
		// echo Y through the same channel.
		fk := w.fk
		for i := 0; i < n; i++ {
			rid := fk.SampleWord(rng.Uint64())
			label := w.ridLabel[rid] ^ bit(noise.Flip(rng.Uint64()))
			out.row(i, label, rid)
			for j := 0; j < dS; j++ {
				out.cell(i, j, label, label^bit(noise.Flip(rng.Uint64())))
			}
		}
	}
}

// bit is 1 if b holds and 0 otherwise; the compiler sets it from the
// comparison's flag instead of branching on it.
func bit(b bool) int32 {
	var v int32
	if b {
		v = 1
	}
	return v
}

// newDesign allocates an n-row design with the FeatureLayout columns.
func (w *World) newDesign(n int) *dataset.Design {
	cfg := w.Cfg
	m := &dataset.Design{NumClasses: 2, Y: make([]int32, n)}
	m.Features = make([]dataset.Feature, 0, cfg.DS+1+cfg.DR)
	for j := 0; j < cfg.DS; j++ {
		m.Features = append(m.Features, dataset.Feature{Name: fmt.Sprintf("XS%d", j), Card: 2, Data: make([]int32, n), Source: "S"})
	}
	m.Features = append(m.Features, dataset.Feature{Name: "FK", Card: cfg.NR, Data: make([]int32, n), Source: "S", IsFK: true})
	for j := 0; j < cfg.DR; j++ {
		m.Features = append(m.Features, dataset.Feature{Name: fmt.Sprintf("XR%d", j), Card: 2, Data: make([]int32, n), Source: "R"})
	}
	return m
}

// TrueConditional returns the exact P(Y=1 | x) for row i of a sampled
// design. For OneXr it depends only on X_r; for XsFkOnly only on FK and X_S;
// for AllXsXr on FK (through its majority bit) and X_S. The bias–variance
// harness uses this for exact noise and optimal predictions.
func (w *World) TrueConditional(m *dataset.Design, i int) float64 {
	cfg := w.Cfg
	// FK sits at column DS of the FeatureLayout; reading it directly keeps
	// this per-test-row call allocation-free.
	fk := int(m.Features[cfg.DS].Data[i])
	switch cfg.Scenario {
	case OneXr:
		if w.R[fk][0] == 0 {
			return 1 - cfg.P // P(Y=1|X_r=0)
		}
		return cfg.P // P(Y=1|X_r=1)
	case AllXsXr:
		// P(Y=1 | majority bit b, x_S) ∝ P(b|Y=1)·Π P(x_Sj|Y=1)·P(Y=1).
		b := w.majority[fk]
		return w.posteriorFromAgreements(m, i, b)
	case XsFkOnly:
		l := w.ridLabel[fk]
		return w.posteriorFromAgreements(m, i, l)
	}
	return 0.5
}

// posteriorFromAgreements computes P(Y=1 | bit, x_S) under the conditional
// independence of the generative model: bit agrees with Y w.p. 1−p, each x_S
// feature agrees with Y w.p. 1−p, and Y is a fair coin.
func (w *World) posteriorFromAgreements(m *dataset.Design, i int, bit int32) float64 {
	cfg := w.Cfg
	like := func(y int32) float64 {
		l := 1.0
		if bit == y {
			l *= 1 - cfg.P
		} else {
			l *= cfg.P
		}
		// X_S occupies columns [0, DS) of the FeatureLayout.
		for j := 0; j < cfg.DS; j++ {
			if m.Features[j].Data[i] == y {
				l *= 1 - cfg.P
			} else {
				l *= cfg.P
			}
		}
		return l
	}
	l1, l0 := like(1), like(0)
	if l1+l0 == 0 {
		return 0.5
	}
	return l1 / (l1 + l0)
}

// Dataset materializes n sampled examples as a normalized dataset.Dataset
// (entity table with FK + attribute table R), for exercising the advisor and
// join planner on simulation data.
func (w *World) Dataset(name string, n int, rng *stats.RNG) (*dataset.Dataset, error) {
	m := w.Sample(n, rng)
	xs, fkIdx, _ := w.FeatureLayout()
	entity := relational.NewTable("S")
	if err := entity.AddColumn(&relational.Column{Name: "Y", Card: 2, Data: m.Y}); err != nil {
		return nil, err
	}
	var home []string
	for _, j := range xs {
		f := m.Features[j]
		if err := entity.AddColumn(&relational.Column{Name: f.Name, Card: f.Card, Data: f.Data}); err != nil {
			return nil, err
		}
		home = append(home, f.Name)
	}
	fk := m.Features[fkIdx]
	if err := entity.AddColumn(&relational.Column{Name: "FK", Card: fk.Card, Data: fk.Data}); err != nil {
		return nil, err
	}
	attr := relational.NewTable("R")
	for j := 0; j < w.Cfg.DR; j++ {
		col := make([]int32, w.Cfg.NR)
		for rid := range col {
			col[rid] = w.R[rid][j]
		}
		if err := attr.AddColumn(&relational.Column{Name: fmt.Sprintf("XR%d", j), Card: 2, Data: col}); err != nil {
			return nil, err
		}
	}
	d := &dataset.Dataset{
		Name:         name,
		Entity:       entity,
		Target:       "Y",
		HomeFeatures: home,
		Attrs:        []dataset.AttributeTable{{Table: attr, FK: "FK", ClosedDomain: true}},
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
