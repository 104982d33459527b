package report

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hamlet/internal/obs"
)

// TestProfileSelfTimeIdentity pins the profile's accounting invariant on
// the committed fixture: in a sequential run (the fixture is generated
// with -workers 1) every millisecond of the root's wall clock is some
// span's self time, so the SelfMS column sums back to the root duration
// within rounding.
func TestProfileSelfTimeIdentity(t *testing.T) {
	r := loadFixture(t, "base")
	p := NewProfile(r.Trace)
	if p == nil {
		t.Fatal("fixture has no trace")
	}
	var selfSum float64
	for _, ps := range p.Paths {
		selfSum += ps.SelfMS
	}
	if math.Abs(selfSum-p.RootMS) > 1 {
		t.Errorf("Σ self = %.3fms, root = %.3fms; differ by more than 1ms", selfSum, p.RootMS)
	}
}

func TestProfileFixtureShape(t *testing.T) {
	r := loadFixture(t, "base")
	p := NewProfile(r.Trace)
	if p.Root != "experiments" || p.Spans < 10 {
		t.Fatalf("profile = %+v", p)
	}
	// The 23 per-config biasvar subtrees must fold onto generalized paths.
	foundBiasvar := false
	for _, ps := range p.Paths {
		if ps.Path == "experiments/fig1/biasvar(OneXr, n_S=*, |D_FK|=*)" {
			foundBiasvar = true
			if ps.Count < 20 {
				t.Errorf("biasvar path folded only %d spans", ps.Count)
			}
		}
	}
	if !foundBiasvar {
		paths := make([]string, len(p.Paths))
		for i, ps := range p.Paths {
			paths[i] = ps.Path
		}
		t.Errorf("no generalized biasvar path; have %v", paths)
	}
	// Hot path starts at the root and descends.
	if len(p.Hot) < 2 || p.Hot[0].Name != "experiments" || p.Hot[0].FracRoot != 1 {
		t.Errorf("hot path = %+v", p.Hot)
	}
	for i := 1; i < len(p.Hot); i++ {
		if p.Hot[i].DurationMS > p.Hot[i-1].DurationMS {
			t.Errorf("hot path step %d longer than its parent: %+v", i, p.Hot)
		}
	}
	// A sequential run keeps ~1 worker busy.
	if p.Util == nil {
		t.Fatal("no utilization on a trace with start times")
	}
	if p.Util.Peak != 1 || p.Util.Avg > 1.01 {
		t.Errorf("sequential fixture utilization = %+v", p.Util)
	}
}

// span builds a test tree node with a start offset and duration in ms.
func span(name string, startMS, durMS float64, counters map[string]int64, children ...*obs.SpanRecord) *obs.SpanRecord {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	return &obs.SpanRecord{
		Name:       name,
		Start:      base.Add(time.Duration(startMS * float64(time.Millisecond))),
		DurationMS: durMS,
		Counters:   counters,
		Children:   children,
	}
}

func TestProfileCounterRollupSkipsNestedCarriers(t *testing.T) {
	// A carries n=10 and its child repeats a share of it (n=4): only the
	// topmost carrier counts. B's independent n=5 adds.
	tree := span("root", 0, 20, nil,
		span("A", 0, 10, map[string]int64{"n": 10},
			span("A1", 0, 4, map[string]int64{"n": 4})),
		span("B", 10, 5, map[string]int64{"n": 5, "m": 2}),
	)
	p := NewProfile(tree)
	got := map[string]int64{}
	for _, c := range p.Counters {
		got[c.Name] = c.Total
	}
	if got["n"] != 15 || got["m"] != 2 {
		t.Errorf("rollup = %v, want n=15 m=2", got)
	}
}

func TestProfileUtilizationOverlap(t *testing.T) {
	// Two fully overlapping 10ms leaves inside a 10ms root: 2 workers.
	tree := span("root", 0, 10, nil,
		span("w[0]", 0, 10, nil),
		span("w[1]", 0, 10, nil),
	)
	p := NewProfile(tree)
	if p.Util == nil || p.Util.Peak != 2 || math.Abs(p.Util.Avg-2) > 1e-9 {
		t.Errorf("overlap utilization = %+v", p.Util)
	}
	// The two w[i] leaves generalize onto one path.
	for _, ps := range p.Paths {
		if ps.Path == "root/w[*]" && ps.Count != 2 {
			t.Errorf("w[*] count = %d", ps.Count)
		}
	}
}

func TestGeneralize(t *testing.T) {
	cases := map[string]string{
		"world[3]":                             "world[*]",
		"biasvar(OneXr, n_S=100, |D_FK|=10)":   "biasvar(OneXr, n_S=*, |D_FK|=*)",
		"plan(JoinAll)":                        "plan(JoinAll)",
		"fig1":                                 "fig1",
		"simulate(OneXr, n_S=500, |D_FK|=40)":  "simulate(OneXr, n_S=*, |D_FK|=*)",
		"mimic(scale=0.25)":                    "mimic(scale=*)",
		"analyze(Walmart)":                     "analyze(Walmart)",
		"biasvar(AllXsXr, n_S=1000, |D_FK|=4)": "biasvar(AllXsXr, n_S=*, |D_FK|=*)",
	}
	for in, want := range cases {
		if got := generalize(in); got != want {
			t.Errorf("generalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProfileWithoutStartTimes: a tree whose spans carry no start times
// still profiles total/self time and counters, with utilization nil.
func TestProfileWithoutStartTimes(t *testing.T) {
	tree := &obs.SpanRecord{Name: "root", DurationMS: 20, Children: []*obs.SpanRecord{
		{Name: "a", DurationMS: 15, Counters: map[string]int64{"rows": 7}, Children: []*obs.SpanRecord{
			{Name: "a1", DurationMS: 5},
		}},
		{Name: "b", DurationMS: 4},
	}}
	p := NewProfile(tree)
	if p.Util != nil {
		t.Error("a tree without start times must leave utilization nil")
	}
	got := map[string]float64{}
	for _, ps := range p.Paths {
		got[ps.Path] = ps.SelfMS
	}
	// root self = 20-15-4 = 1; a self = 15-5 = 10; a1 = 5; b = 4.
	want := map[string]float64{"root": 1, "root/a": 10, "root/a/a1": 5, "root/b": 4}
	for path, self := range want {
		if math.Abs(got[path]-self) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", path, got[path], self)
		}
	}
	if len(p.Counters) != 1 || p.Counters[0].Name != "rows" || p.Counters[0].Total != 7 {
		t.Errorf("counters = %+v", p.Counters)
	}
}

// TestProfileNilTree: a nil tree profiles to nil, which cmd/report turns
// into its "no span tree" vacuous exit.
func TestProfileNilTree(t *testing.T) {
	if p := NewProfile(nil); p != nil {
		t.Errorf("NewProfile(nil) = %+v", p)
	}
}

// TestWriteFolded pins the folded-stacks format: semicolon-joined frames,
// one space, integer self-microseconds — the grammar flamegraph.pl and
// speedscope parse. Frame names must not contain the separator characters,
// and the emitted values must sum to the profile's total self time.
func TestWriteFolded(t *testing.T) {
	p := NewProfile(&obs.SpanRecord{
		Name: "load gen", DurationMS: 20,
		Children: []*obs.SpanRecord{
			{Name: "drive(mode=decide)", DurationMS: 15, Children: []*obs.SpanRecord{{Name: "decide[3]", DurationMS: 5}}},
			{Name: "tiny", DurationMS: 0.0001}, // rounds to 0µs: omitted
		},
	})
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := map[string]int64{
		"load_gen":                              5000, // 20 - 15 - 0.0001 ≈ 5ms self
		"load_gen;drive(mode=decide)":           10000,
		"load_gen;drive(mode=decide);decide[*]": 5000,
	}
	var sum int64
	for _, line := range lines {
		stack, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(stack, "tiny") {
			t.Fatalf("bad folded line %q", line)
		}
		us, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("value of %q: %v", line, err)
		}
		if want[stack] != us {
			t.Errorf("self(%s) = %dµs, want %dµs", stack, us, want[stack])
		}
		sum += us
	}
	if len(lines) != len(want) {
		t.Errorf("folded lines = %v, want %d stacks", lines, len(want))
	}
	if sum != 20000 {
		t.Errorf("folded self times sum to %dµs, want the 20000µs wall clock", sum)
	}
}

// TestWriteFoldedFixture sanity-checks the real fixture round trip: every
// line parses and the root frame leads each stack.
func TestWriteFoldedFixture(t *testing.T) {
	r := loadFixture(t, "base")
	var buf bytes.Buffer
	if err := NewProfile(r.Trace).WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) == 0 || buf.Len() == 0 {
		t.Fatal("fixture folded output empty")
	}
	for _, line := range lines {
		stack, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(stack, "experiments") {
			t.Fatalf("bad folded line %q", line)
		}
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			t.Fatalf("value of %q: %v", line, err)
		}
	}
}
