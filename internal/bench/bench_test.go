package bench

import (
	"math"
	"testing"
)

func TestParseMetaFormat(t *testing.T) {
	s, err := ParseFile("../../cmd/benchdiff/testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta.Count != 3 || s.Meta.Benchtime != "1s" || s.Meta.GoVersion != "go1.24.0" {
		t.Errorf("meta = %+v", s.Meta)
	}
	if len(s.Benchmarks) != 9 {
		t.Fatalf("got %d samples, want 9", len(s.Benchmarks))
	}
	if s.Benchmarks[0].Name != "BenchmarkForwardSelection" || s.Benchmarks[0].NsPerOp != 1000000 {
		t.Errorf("first sample = %+v", s.Benchmarks[0])
	}
	if s.Benchmarks[0].AllocsPerOp == nil || *s.Benchmarks[0].AllocsPerOp != 1200 {
		t.Errorf("allocs not parsed: %+v", s.Benchmarks[0])
	}
}

func TestParseMetaHardware(t *testing.T) {
	s, err := ParseFile("../../cmd/benchdiff/testdata/old_count1.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta.NumCPU != 2 || s.Meta.GOMAXPROCS != 2 || s.Meta.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("hardware meta = %+v", s.Meta)
	}
}

func TestParseRawBenchText(t *testing.T) {
	s, err := ParseFile("testdata/raw_bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"BenchmarkForwardSelection": 2,
		"BenchmarkKFKJoin":          1,
		"BenchmarkROR":              1,
		"BenchmarkNilSpanOps":       1,
	}
	got := map[string]int{}
	for _, b := range s.Benchmarks {
		got[b.Name]++
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: %d samples, want %d (all: %v)", name, got[name], n, got)
		}
	}
	for _, b := range s.Benchmarks {
		if b.Name == "BenchmarkKFKJoin" {
			if b.NsPerOp != 255000 || b.BytesPerOp != nil {
				t.Errorf("KFKJoin without -benchmem: %+v", b)
			}
		}
		if b.Name == "BenchmarkNilSpanOps" && b.NsPerOp != 0.25 {
			t.Errorf("sub-ns benchmark: %+v", b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("bad JSON object should error")
	}
	if _, err := Parse([]byte(`[{"name":"BenchmarkX","iterations":1,"ns_per_op":1}]`)); err == nil {
		t.Error("a bare JSON array is not a snapshot and should error")
	}
	if _, err := Parse([]byte("no benchmarks here\njust prose\n")); err == nil {
		t.Error("text without benchmark lines should error")
	}
}

// snap builds a snapshot of repeated samples per name for diff tests.
func snap(nsByName map[string][]float64) *Snapshot {
	s := &Snapshot{}
	for name, series := range nsByName {
		for _, v := range series {
			s.Benchmarks = append(s.Benchmarks, Sample{Name: name, Iterations: 1, NsPerOp: v})
		}
	}
	return s
}

func TestDiffAlignmentAndGeomean(t *testing.T) {
	before := snap(map[string][]float64{
		"BenchmarkA":    {100, 100},
		"BenchmarkB":    {200, 200},
		"BenchmarkGone": {50},
	})
	after := snap(map[string][]float64{
		"BenchmarkA":   {200, 200}, // 2x slower
		"BenchmarkB":   {100, 100}, // 2x faster
		"BenchmarkNew": {10},
	})
	rep := Diff(before, after)
	if len(rep.Deltas) != 2 {
		t.Fatalf("aligned %d, want 2: %+v", len(rep.Deltas), rep.Deltas)
	}
	if rep.Deltas[0].Name != "BenchmarkA" || rep.Deltas[1].Name != "BenchmarkB" {
		t.Errorf("deltas not sorted by name: %+v", rep.Deltas)
	}
	if rep.Deltas[0].Ratio != 2 || rep.Deltas[1].Ratio != 0.5 {
		t.Errorf("ratios = %v, %v; want 2, 0.5", rep.Deltas[0].Ratio, rep.Deltas[1].Ratio)
	}
	// Geomean of {2, 0.5} is exactly 1.
	if math.Abs(rep.Geomean-1) > 1e-12 {
		t.Errorf("geomean = %v, want 1", rep.Geomean)
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "BenchmarkGone" {
		t.Errorf("OnlyOld = %v", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "BenchmarkNew" {
		t.Errorf("OnlyNew = %v", rep.OnlyNew)
	}
}

func TestRegressionsThresholdAndSignificance(t *testing.T) {
	before := snap(map[string][]float64{
		"BenchmarkClear":  {1000, 1010, 990}, // +25%, tight: regression
		"BenchmarkNoisy":  {1000, 2000, 500}, // +25% but huge variance: insignificant
		"BenchmarkSmall":  {1000, 1001, 999}, // +2%: under threshold
		"BenchmarkSingle": {1000},            // +50%, one sample: threshold-only gate
	})
	after := snap(map[string][]float64{
		"BenchmarkClear":  {1250, 1260, 1240},
		"BenchmarkNoisy":  {1250, 2400, 800},
		"BenchmarkSmall":  {1020, 1021, 1019},
		"BenchmarkSingle": {1500},
	})
	rep := Diff(before, after)
	regs := rep.Regressions(0.10, 0.05)
	names := map[string]bool{}
	for _, d := range regs {
		names[d.Name] = true
	}
	if !names["BenchmarkClear"] {
		t.Error("tight +25% regression not flagged")
	}
	if names["BenchmarkNoisy"] {
		t.Error("statistically insignificant delta flagged as regression")
	}
	if names["BenchmarkSmall"] {
		t.Error("+2% delta flagged despite 10% threshold")
	}
	if !names["BenchmarkSingle"] {
		t.Error("single-sample +50% regression not flagged (threshold-only gate)")
	}
	if len(regs) != 2 {
		t.Errorf("got %d regressions, want 2: %v", len(regs), names)
	}
	// Worst first.
	if regs[0].Name != "BenchmarkSingle" {
		t.Errorf("regressions not sorted worst-first: %+v", regs)
	}
	// Raising the threshold above both deltas clears the gate.
	if got := rep.Regressions(0.60, 0.05); len(got) != 0 {
		t.Errorf("threshold 60%%: got %+v, want none", got)
	}
}

func TestDiffAllocs(t *testing.T) {
	a1200, a1500 := 1200.0, 1500.0
	before := &Snapshot{Benchmarks: []Sample{{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &a1200}}}
	after := &Snapshot{Benchmarks: []Sample{{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &a1500}}}
	rep := Diff(before, after)
	if rep.Deltas[0].OldAllocs != 1200 || rep.Deltas[0].NewAllocs != 1500 {
		t.Errorf("allocs means = %v -> %v", rep.Deltas[0].OldAllocs, rep.Deltas[0].NewAllocs)
	}
	// Without -benchmem the alloc means are NaN, not zero.
	rep = Diff(snap(map[string][]float64{"BenchmarkX": {100}}), snap(map[string][]float64{"BenchmarkX": {100}}))
	if !math.IsNaN(rep.Deltas[0].OldAllocs) {
		t.Errorf("missing allocs should be NaN, got %v", rep.Deltas[0].OldAllocs)
	}
}

// memSnap builds a snapshot where every sample carries the same ns/op but
// per-name B/op and allocs/op series.
func memSnap(byName map[string][2][]float64) *Snapshot {
	s := &Snapshot{}
	for name, series := range byName {
		bytes, allocs := series[0], series[1]
		for i := range bytes {
			b, a := bytes[i], allocs[i]
			s.Benchmarks = append(s.Benchmarks, Sample{
				Name: name, Iterations: 1, NsPerOp: 100,
				BytesPerOp: &b, AllocsPerOp: &a,
			})
		}
	}
	return s
}

func TestMemDelta(t *testing.T) {
	if got := memDelta(100, 125); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("memDelta(100,125) = %v, want 0.25", got)
	}
	if got := memDelta(0, 0); got != 0 {
		t.Errorf("memDelta(0,0) = %v, want 0", got)
	}
	if got := memDelta(0, 1); !math.IsInf(got, 1) {
		t.Errorf("memDelta(0,1) = %v, want +Inf", got)
	}
	if got := memDelta(math.NaN(), 5); !math.IsNaN(got) {
		t.Errorf("memDelta(NaN,5) = %v, want NaN", got)
	}
	if got := memDelta(5, math.NaN()); !math.IsNaN(got) {
		t.Errorf("memDelta(5,NaN) = %v, want NaN", got)
	}
}

func TestMemRegressions(t *testing.T) {
	before := memSnap(map[string][2][]float64{
		"BenchmarkBytes":  {{1000, 1000, 1000}, {10, 10, 10}},
		"BenchmarkAllocs": {{500, 500, 500}, {10, 10, 10}},
		"BenchmarkFlat":   {{500, 500, 500}, {10, 10, 10}},
		"BenchmarkZero":   {{0, 0, 0}, {0, 0, 0}},
	})
	after := memSnap(map[string][2][]float64{
		"BenchmarkBytes":  {{1250, 1250, 1250}, {10, 10, 10}}, // B/op +25%
		"BenchmarkAllocs": {{500, 500, 500}, {15, 15, 15}},    // allocs/op +50%
		"BenchmarkFlat":   {{510, 510, 510}, {10, 10, 10}},    // +2%, under threshold
		"BenchmarkZero":   {{64, 64, 64}, {1, 1, 1}},          // 0 -> positive: +Inf
	})
	rep := Diff(before, after)
	regs := rep.MemRegressions(0.10, 0.05)
	names := map[string]Delta{}
	for _, d := range regs {
		names[d.Name] = d
	}
	if _, ok := names["BenchmarkBytes"]; !ok {
		t.Error("+25% B/op regression not flagged")
	}
	if _, ok := names["BenchmarkAllocs"]; !ok {
		t.Error("+50% allocs/op regression not flagged")
	}
	if _, ok := names["BenchmarkFlat"]; ok {
		t.Error("+2% delta flagged despite 10% threshold")
	}
	if _, ok := names["BenchmarkZero"]; !ok {
		t.Error("0 -> positive regression not flagged (+Inf convention)")
	}
	if len(regs) != 3 {
		t.Errorf("got %d mem regressions, want 3: %v", len(regs), regs)
	}
	// Sorted worst first: +Inf, then +50% allocs, then +25% bytes.
	if regs[0].Name != "BenchmarkZero" || regs[1].Name != "BenchmarkAllocs" || regs[2].Name != "BenchmarkBytes" {
		t.Errorf("mem regressions not sorted worst-first: %+v", regs)
	}
	// Benchmarks without -benchmem data never fire the mem gate.
	rep = Diff(snap(map[string][]float64{"BenchmarkX": {100, 100}}), snap(map[string][]float64{"BenchmarkX": {100, 100}}))
	if got := rep.MemRegressions(0.0, 0.05); len(got) != 0 {
		t.Errorf("NaN memory metrics fired the gate: %+v", got)
	}
}
