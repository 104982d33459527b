package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	root := StartSpan("analyze")
	a := root.Child("plan(JoinAll)")
	a.Add("evaluations", 70)
	a.Add("evaluations", 2)
	m := a.Child("materialize")
	m.Add("rows", 42157)
	m.End()
	a.End()
	b := root.Child("plan(JoinOpt)")
	b.End()
	root.End()

	if got := root.Name(); got != "analyze" {
		t.Errorf("Name() = %q, want analyze", got)
	}
	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
	if kids[0] != a || kids[1] != b {
		t.Error("children not in start order")
	}
	if got := a.Counter("evaluations"); got != 72 {
		t.Errorf("evaluations counter = %d, want 72", got)
	}
	if got := a.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	if len(a.Children()) != 1 || a.Children()[0].Counter("rows") != 42157 {
		t.Error("grandchild not recorded")
	}
	if root.Duration() <= 0 {
		t.Error("ended span has non-positive duration")
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := StartSpan("x")
	s.End()
	d := s.Duration()
	time.Sleep(time.Millisecond)
	s.End()
	if got := s.Duration(); got != d {
		t.Errorf("second End changed duration: %v -> %v", d, got)
	}
}

func TestSpanWriteText(t *testing.T) {
	root := StartSpan("analyze(Walmart)")
	a := root.Child("plan(JoinAll)")
	a.Add("evaluations", 70)
	a.Child("materialize").End()
	a.Child("select(forward)").End()
	a.End()
	root.Child("plan(JoinOpt)").End()
	root.End()

	text := root.String()
	for _, want := range []string{
		"analyze(Walmart) ",
		"├─ plan(JoinAll) ",
		"[evaluations=70]",
		"│  ├─ materialize ",
		"│  └─ select(forward) ",
		"└─ plan(JoinOpt) ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, text)
		}
	}
}

func TestSpanCountersSorted(t *testing.T) {
	s := StartSpan("x")
	s.Add("zeta", 1)
	s.Add("alpha", 2)
	s.End()
	text := s.String()
	if !strings.Contains(text, "[alpha=2 zeta=1]") {
		t.Errorf("counters not rendered in sorted order: %s", text)
	}
}

func TestSpanJSON(t *testing.T) {
	root := StartSpan("root")
	root.Child("kid").Add("rows", 3)
	root.End()
	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name     string  `json:"name"`
		Duration float64 `json:"duration_ms"`
		Children []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "root" || len(got.Children) != 1 {
		t.Fatalf("unexpected JSON structure: %s", data)
	}
	if got.Children[0].Counters["rows"] != 3 {
		t.Errorf("child counters = %v, want rows=3", got.Children[0].Counters)
	}
}

func TestNilSpanNoOps(t *testing.T) {
	var s *Span
	s.End()
	s.Add("x", 1)
	if c := s.Child("y"); c != nil {
		t.Error("nil.Child returned non-nil")
	}
	if s.Name() != "" || s.Duration() != 0 || s.Counter("x") != 0 || s.Children() != nil {
		t.Error("nil span accessors not zero")
	}
	if s.String() != "" {
		t.Error("nil span String not empty")
	}
	if err := s.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}
	data, err := json.Marshal(s)
	if err != nil || string(data) != "null" {
		t.Errorf("nil MarshalJSON = %s, %v; want null", data, err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(2) // S = 4 sub-buckets: 0..3 exact, then width-doubling eras
	for _, v := range []int64{0, 3, 4, 7, 8, 9, 1000, -5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 8 {
		t.Errorf("Count = %d, want 8", snap.Count)
	}
	if snap.Sum != 0+3+4+7+8+9+1000+0 { // -5 clamps to 0
		t.Errorf("Sum = %d", snap.Sum)
	}
	if snap.Min != 0 || snap.Max != 1000 {
		t.Errorf("Min/Max = %d/%d, want 0/1000", snap.Min, snap.Max)
	}
	// Linear range is exact; 8 and 9 share the width-2 bucket [8,9].
	want := map[int]int64{0: 2, 3: 1, 4: 1, 7: 1, 8: 2}
	for idx, n := range want {
		if snap.Buckets[idx] != n {
			t.Errorf("bucket %d = %d, want %d (all: %v)", idx, snap.Buckets[idx], n, snap.Buckets)
		}
	}
	if len(snap.Buckets) != len(want)+1 { // +1 for 1000's bucket
		t.Errorf("unexpected bucket layout: %v", snap.Buckets)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	// Every value must land in a bucket whose inclusive upper bound is ≥ the
	// value and within the 2^-p relative error of it.
	for _, p := range []uint{0, 2, DefaultPrecision, MaxPrecision} {
		for _, v := range []int64{0, 1, 2, 3, 100, 1023, 1024, 1025, 1 << 40, math.MaxInt64} {
			idx := bucketIndex(v, p)
			ub := bucketUpper(idx, p)
			if ub < v {
				t.Fatalf("p=%d v=%d: upper bound %d < value", p, v, ub)
			}
			if v > 0 && float64(ub-v) > float64(v)*math.Ldexp(1, -int(p)) {
				t.Errorf("p=%d v=%d: upper bound %d beyond relative error bound", p, v, ub)
			}
			if idx > 0 && bucketUpper(idx-1, p) >= v {
				t.Errorf("p=%d v=%d: previous bucket also covers the value", p, v)
			}
		}
	}
}

func TestHistogramSnapshotRoundTripsJSON(t *testing.T) {
	h := NewHistogram(DefaultPrecision)
	for _, v := range []int64{5, 90, 5000, 123456789} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot round trip diverged:\n%#v\n%#v", snap, back)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("joins").Add(3)
	r.Gauge("rows").Set(7)
	r.Histogram("sizes").Observe(5)

	if c := r.Counter("joins"); c.Value() != 3 {
		t.Errorf("get-or-create returned a fresh counter, value %d", c.Value())
	}
	snap := r.Snapshot()
	if snap["joins"] != int64(3) || snap["rows"] != int64(7) {
		t.Errorf("snapshot = %v", snap)
	}
	hs, ok := snap["sizes"].(HistogramSnapshot)
	if !ok || hs.Count != 1 {
		t.Errorf("histogram snapshot = %#v", snap["sizes"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestDisabledMetricsNoOp(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(5)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Error("disabled metrics recorded updates")
	}
	if Enabled() {
		t.Error("Enabled() = true after SetEnabled(false)")
	}
}

func TestNilMetricsNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics not zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Error("nil histogram snapshot not empty")
	}
}

func TestProgressReporting(t *testing.T) {
	var buf strings.Builder
	p := NewProgress(&buf, "fig3", 0) // every <= 0: emit on each Step
	p.AddTotal(4)
	p.Step(1)
	p.AddTotal(4) // totals may grow mid-run
	p.Step(3)
	p.Flush()

	if p.Done() != 4 || p.Total() != 8 {
		t.Errorf("Done/Total = %d/%d, want 4/8", p.Done(), p.Total())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "progress: fig3 1/4 (25.0%)") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[2], "4/8 (50.0%)") {
		t.Errorf("flush line = %q", lines[2])
	}
}

func TestProgressRelabelAndNoTotal(t *testing.T) {
	var buf strings.Builder
	p := NewProgress(&buf, "a", 0)
	p.SetLabel("b")
	p.Step(2)
	if !strings.Contains(buf.String(), "progress: b 2 ") {
		t.Errorf("expected bare count with new label, got %q", buf.String())
	}
}

func TestNilProgressNoOps(t *testing.T) {
	var p *Progress
	p.SetLabel("x")
	p.AddTotal(5)
	p.Step(1)
	p.Flush()
	if p.Done() != 0 || p.Total() != 0 {
		t.Error("nil progress accessors not zero")
	}
}
