package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// testBudget is deliberately small; the assertions below only check shapes
// that are robust at this depth.
var testBudget = Budget{Worlds: 2, L: 6, NTest: 200, MimicScale: 0.02, Seed: 1}

// Cell looks up a cell by row index and column name; it returns "" when the
// column is absent or the row is out of range. Tests use this to assert on
// artifact content without caring about column positions.
func (t *Table) Cell(row int, column string) string {
	if row < 0 || row >= len(t.Rows) {
		return ""
	}
	for i, c := range t.Columns {
		if c == column {
			return t.Rows[row][i]
		}
	}
	return ""
}

// FindRow returns the index of the first row whose cell in the given column
// equals value, or -1.
func (t *Table) FindRow(column, value string) int {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return -1
	}
	for ri, row := range t.Rows {
		if row[ci] == value {
			return ri
		}
	}
	return -1
}

// TableByTitle returns the first table whose title contains the substring,
// or nil.
func (r *Result) TableByTitle(sub string) *Table {
	for _, t := range r.Tables {
		if strings.Contains(t.Title, sub) {
			return t
		}
	}
	return nil
}

func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := tab.Cell(row, col)
	if s == "" {
		t.Fatalf("table %q: empty cell (%d, %s)", tab.Title, row, col)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("table %q cell (%d,%s) = %q: %v", tab.Title, row, col, s, err)
	}
	return v
}

func TestBudgetValidate(t *testing.T) {
	if err := Quick.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Full.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Quick
	bad.Worlds = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("empty budget accepted")
	}
	bad = Quick
	bad.MimicScale = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.Add("1", "2")
	tab.Add("3", "4")
	if tab.Cell(0, "b") != "2" || tab.Cell(1, "a") != "3" {
		t.Fatal("Cell broken")
	}
	if tab.Cell(5, "a") != "" || tab.Cell(0, "zz") != "" {
		t.Fatal("Cell should return empty for misses")
	}
	if tab.FindRow("a", "3") != 1 || tab.FindRow("a", "9") != -1 || tab.FindRow("zz", "1") != -1 {
		t.Fatal("FindRow broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong arity should panic")
		}
	}()
	tab.Add("only-one")
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Demo", Columns: []string{"x", "y"}}
	tab.Add("1", "2")
	var txt bytes.Buffer
	if err := tab.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== Demo ==") || !strings.Contains(txt.String(), "1") {
		t.Fatalf("text output: %q", txt.String())
	}
	var csvb bytes.Buffer
	if err := tab.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	if csvb.String() != "x,y\n1,2\n" {
		t.Fatalf("csv output: %q", csvb.String())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"coldstart", "cv", "fcbf", "fig1", "fig10", "fig11", "fig12", "fig13", "fig3", "fig4", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9", "joint", "skewguard", "tan", "xsfk"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v", got)
		}
	}
	if _, err := Run("nope", testBudget); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig3Shapes(t *testing.T) {
	res, err := RunFig3(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	errA := res.TableByTitle("3(A): average test error")
	if errA == nil {
		t.Fatal("missing fig3A error table")
	}
	// NoJoin at the smallest n_S must exceed NoJoin at the largest, and
	// must exceed UseAll at the smallest n_S.
	first, last := 0, len(errA.Rows)-1
	if cellF(t, errA, first, "NoJoin") <= cellF(t, errA, last, "NoJoin") {
		t.Fatal("NoJoin error should fall as n_S grows")
	}
	if cellF(t, errA, first, "NoJoin") <= cellF(t, errA, first, "UseAll")+0.005 {
		t.Fatal("NoJoin should be worse than UseAll at small n_S")
	}
	// At large n_S, NoJoin converges to UseAll.
	if cellF(t, errA, last, "NoJoin")-cellF(t, errA, last, "UseAll") > 0.01 {
		t.Fatal("NoJoin should match UseAll at large n_S")
	}
	// Figure 3(B): NoJoin error grows with |D_FK|; UseAll stays flat.
	errB := res.TableByTitle("3(B): average test error")
	first, last = 0, len(errB.Rows)-1
	if cellF(t, errB, last, "NoJoin") <= cellF(t, errB, first, "NoJoin") {
		t.Fatal("NoJoin error should grow with |D_FK|")
	}
	if cellF(t, errB, last, "UseAll")-cellF(t, errB, first, "UseAll") > 0.01 {
		t.Fatal("UseAll should be flat in |D_FK|")
	}
	// Net variance drives the error gap.
	nvB := res.TableByTitle("3(B): average net variance")
	if cellF(t, nvB, last, "NoJoin") <= cellF(t, nvB, first, "NoJoin") {
		t.Fatal("NoJoin net variance should grow with |D_FK|")
	}
}

func TestFig4ScatterAndThresholds(t *testing.T) {
	res, err := RunFig4(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.TableByTitle("summary")
	if sum == nil {
		t.Fatal("missing summary table")
	}
	r := sum.FindRow("quantity", "Pearson(ROR, 1/sqrt(TR))")
	if r < 0 {
		t.Fatal("missing Pearson row")
	}
	if v := cellF(t, sum, r, "value"); v < 0.9 {
		t.Fatalf("Pearson = %v, want ≥ 0.9", v)
	}
	// The tuned thresholds must be in the right ballpark of the paper's
	// (ρ=2.5, τ=20) and ordered correctly with the relaxed tolerance.
	rhoTight := cellF(t, sum, sum.FindRow("quantity", "rho@0.001"), "value")
	tauTight := cellF(t, sum, sum.FindRow("quantity", "tau@0.001"), "value")
	rhoLoose := cellF(t, sum, sum.FindRow("quantity", "rho@0.010"), "value")
	tauLoose := cellF(t, sum, sum.FindRow("quantity", "tau@0.010"), "value")
	if rhoTight < 1 || rhoTight > 4 {
		t.Fatalf("rho@0.001 = %v, want ≈2.5", rhoTight)
	}
	if tauTight < 8 || tauTight > 45 {
		t.Fatalf("tau@0.001 = %v, want ≈20", tauTight)
	}
	if rhoLoose < rhoTight || tauLoose > tauTight {
		t.Fatalf("relaxed thresholds not wider: rho %v→%v tau %v→%v", rhoTight, rhoLoose, tauTight, tauLoose)
	}
}

func TestFig6MatchesPaperAtScaleOne(t *testing.T) {
	b := testBudget
	b.MimicScale = 1
	res, err := RunFig6(b)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	r := tab.FindRow("Dataset", "Walmart")
	if tab.Cell(r, "n_S") != "421570" || tab.Cell(r, "#Y") != "7" || tab.Cell(r, "k'") != "2" {
		t.Fatalf("Walmart row wrong: %v", tab.Rows[r])
	}
	r = tab.FindRow("Dataset", "Expedia")
	if tab.Cell(r, "k'") != "1" {
		t.Fatal("Expedia should have one closed-domain FK")
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d datasets, want 7", len(tab.Rows))
	}
}

func TestFig7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mimic sweep; run without -short (CI covers it on the full-race leg)")
	}
	res, err := RunFig7(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	errT := res.TableByTitle("7(A)")
	if errT == nil || len(errT.Rows) != 28 {
		t.Fatalf("fig7A should have 7×4 rows, got %d", len(errT.Rows))
	}
	// JoinOpt's error must never blow up: bounded increase over JoinAll.
	for i := range errT.Rows {
		all := cellF(t, errT, i, "JoinAll")
		opt := cellF(t, errT, i, "JoinOpt")
		if opt-all > 0.08 {
			t.Errorf("row %v: JoinOpt blew up: %v vs %v", errT.Rows[i], opt, all)
		}
	}
	// Table counts: Walmart and MovieLens1M avoid both joins (1 input
	// table); Yelp and BookCrossing avoid none.
	for _, c := range []struct {
		ds   string
		tabs string
	}{{"Walmart", "1"}, {"MovieLens1M", "1"}, {"Yelp", "3"}, {"BookCrossing", "3"}} {
		r := errT.FindRow("Dataset", c.ds)
		if errT.Cell(r, "TablesOpt") != c.tabs {
			t.Errorf("%s: TablesOpt = %s, want %s", c.ds, errT.Cell(r, "TablesOpt"), c.tabs)
		}
	}
	// Runtime: where both joins are avoided, feature selection must see
	// far fewer candidate features.
	rtT := res.TableByTitle("7(B)")
	r := rtT.FindRow("Dataset", "MovieLens1M")
	featsAll := cellF(t, rtT, r, "FeatsAll")
	featsOpt := cellF(t, rtT, r, "FeatsOpt")
	if featsOpt*3 > featsAll {
		t.Fatalf("MovieLens1M: JoinOpt features %v vs %v, expected big reduction", featsOpt, featsAll)
	}
}

func TestFig8ARobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mimic sweep; run without -short (CI covers it on the full-race leg)")
	}
	res, err := RunFig8A(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// Yelp: NoJoins must blow up versus JoinAll under forward selection.
	yNo := tab.Rows[tab.FindRow("Plan", "NoJoins")]
	_ = yNo
	findPlan := func(ds, plan string) int {
		for i, row := range tab.Rows {
			if row[0] == ds && row[1] == plan {
				return i
			}
		}
		return -1
	}
	yelpNo := findPlan("Yelp", "NoJoins")
	yelpAll := findPlan("Yelp", "JoinAll")
	if cellF(t, tab, yelpNo, "FS")-cellF(t, tab, yelpAll, "FS") < 0.05 {
		t.Fatal("Yelp NoJoins should blow up the error")
	}
	// Walmart: NoJoins is fine and is the chosen plan.
	wNo := findPlan("Walmart", "NoJoins")
	wAll := findPlan("Walmart", "JoinAll")
	if cellF(t, tab, wNo, "FS")-cellF(t, tab, wAll, "FS") > 0.02 {
		t.Fatal("Walmart NoJoins should be safe")
	}
	if tab.Cell(wNo, "ChosenByJoinOpt") != "*" {
		t.Fatal("Walmart NoJoins should be the JoinOpt plan")
	}
	// Expedia is omitted (single closed-domain FK).
	if tab.FindRow("Dataset", "Expedia") >= 0 {
		t.Fatal("Expedia should be absent from fig8a")
	}
	// BookCrossing: avoiding UserID blows up; avoiding BookID does not
	// (the missed opportunity).
	bcU := findPlan("BookCrossing", "avoid{UserID}")
	bcB := findPlan("BookCrossing", "avoid{BookID}")
	bcAll := findPlan("BookCrossing", "JoinAll")
	if cellF(t, tab, bcU, "FS")-cellF(t, tab, bcAll, "FS") < 0.05 {
		t.Fatal("BookCrossing avoid{UserID} should blow up")
	}
	if cellF(t, tab, bcB, "FS")-cellF(t, tab, bcAll, "FS") > 0.02 {
		t.Fatal("BookCrossing avoid{BookID} should be harmless")
	}
}

func TestFig8BSensitivity(t *testing.T) {
	res, err := RunFig8B(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// 14 closed-domain FKs across the 7 datasets.
	if len(tab.Rows) != 14 {
		t.Fatalf("fig8b has %d rows, want 14", len(tab.Rows))
	}
	// Relaxed thresholds must admit the two Flights airport tables.
	admitted := 0
	for i, row := range tab.Rows {
		if row[0] == "Flights" && (row[1] == "SrcAirports" || row[1] == "DestAirports") {
			if tab.Cell(i, "avoid@default") != "false" {
				t.Fatal("Flights airports must be kept at default thresholds")
			}
			if tab.Cell(i, "avoid@relaxed") == "true" {
				admitted++
			}
		}
	}
	if admitted != 2 {
		t.Fatalf("relaxed thresholds admitted %d Flights airport joins, want 2", admitted)
	}
	sum := res.TableByTitle("summary")
	if v := cellF(t, sum, 0, "value"); v < 0.85 {
		t.Fatalf("real-data ROR↔TR Pearson = %v, want ≥ 0.85", v)
	}
}

func TestFig8CDroppingFKsHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mimic sweep; run without -short (CI covers it on the full-race leg)")
	}
	res, err := RunFig8C(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// Dropping FKs must be catastrophic where concepts live at FK level:
	// MovieLens1M and LastFM.
	hurt := 0
	for i, row := range tab.Rows {
		if row[0] == "MovieLens1M" || row[0] == "LastFM" {
			if cellF(t, tab, i, "JoinAllNoFK")-cellF(t, tab, i, "JoinOpt") > 0.1 {
				hurt++
			}
		}
	}
	if hurt < 3 {
		t.Fatalf("JoinAllNoFK should blow up on FK-level concepts, only %d of 4 rows did", hurt)
	}
}

func TestFig9LogregShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mimic sweep; run without -short (CI covers it on the full-race leg)")
	}
	res, err := RunFig9(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("fig9 has %d rows", len(tab.Rows))
	}
	// L1: JoinOpt must stay close to JoinAll on every dataset.
	for i := range tab.Rows {
		gap := cellF(t, tab, i, "L1_JoinOpt") - cellF(t, tab, i, "L1_JoinAll")
		if gap > 0.08 {
			t.Errorf("%s: L1 JoinOpt blew up by %v", tab.Rows[i][0], gap)
		}
	}
}

func TestFig13SkewShapes(t *testing.T) {
	res, err := RunFig13(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	// Malign skew: the NoJoin gap at the smallest n_S must exceed the gap
	// at the largest (the gap closes as n grows).
	b2 := res.TableByTitle("B2")
	first, last := 0, len(b2.Rows)-1
	if cellF(t, b2, first, "dErr") <= cellF(t, b2, last, "dErr") {
		t.Fatal("malign-skew gap should close as n_S grows")
	}
	// Benign skew: no blow-up anywhere.
	a2 := res.TableByTitle("A2")
	for i := range a2.Rows {
		if cellF(t, a2, i, "dErr") > 0.02 {
			t.Fatalf("benign skew blew up NoJoin at row %d", i)
		}
	}
}

func TestTANNeverBeatsNBHere(t *testing.T) {
	res, err := RunTAN(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	for i := range tab.Rows {
		if cellF(t, tab, i, "TAN-NB") < -0.01 {
			t.Fatalf("TAN beat NB at row %d, contradicting Appendix E", i)
		}
	}
}

func TestResultWriteText(t *testing.T) {
	res, err := RunFig6(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Walmart") {
		t.Fatal("WriteText lost content")
	}
	if res.TableByTitle("no-such-title") != nil {
		t.Fatal("TableByTitle should return nil on miss")
	}
}

func TestRunnersRejectBadBudget(t *testing.T) {
	var bad Budget
	for _, id := range IDs() {
		if _, err := Run(id, bad); err == nil {
			t.Errorf("%s accepted an empty budget", id)
		}
	}
}
