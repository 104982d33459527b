package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext().WithSampled(true)
	hdr := tc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("Traceparent() = %q: len %d, want 55", hdr, len(hdr))
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("Traceparent() = %q: want version 00 and sampled flags 01", hdr)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
	if !got.Sampled() {
		t.Error("round-tripped context lost the sampled flag")
	}
}

func TestTraceContextMintedValid(t *testing.T) {
	for i := 0; i < 64; i++ {
		tc := NewTraceContext()
		if !tc.Valid() {
			t.Fatalf("NewTraceContext() = %+v: invalid", tc)
		}
		if tc.Sampled() {
			t.Fatalf("NewTraceContext() = %+v: sampled flag set at mint", tc)
		}
	}
}

func TestTraceContextChild(t *testing.T) {
	parent := NewTraceContext().WithSampled(true)
	child := parent.Child()
	if child.TraceID != parent.TraceID {
		t.Error("Child() changed the trace ID")
	}
	if child.SpanID == parent.SpanID {
		t.Error("Child() reused the parent's span ID")
	}
	if !child.Sampled() {
		t.Error("Child() dropped the sampled flag")
	}
	if !child.Valid() {
		t.Errorf("Child() = %+v: invalid", child)
	}
}

func TestTraceContextWithSampled(t *testing.T) {
	tc := NewTraceContext()
	tc.Flags = 0xfe // every bit but sampled
	on := tc.WithSampled(true)
	if on.Flags != 0xff {
		t.Errorf("WithSampled(true): flags %02x, want ff", on.Flags)
	}
	off := on.WithSampled(false)
	if off.Flags != 0xfe {
		t.Errorf("WithSampled(false): flags %02x, want fe", off.Flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := NewTraceContext().Traceparent()
	cases := map[string]string{
		"empty":         "",
		"truncated":     valid[:54],
		"bad separator": valid[:35] + "_" + valid[36:],
		"version ff":    "ff" + valid[2:],
		"version hex":   "zz" + valid[2:],
		"long v00":      valid + "-extra",
		"zero trace id": "00-00000000000000000000000000000000-" + valid[36:],
		"zero span id":  valid[:36] + "0000000000000000-00",
		"bad trace hex": "00-" + strings.Repeat("zz", 16) + valid[35:],
		"bad flags hex": valid[:53] + "zz",
		"uppercase hex": "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
	}
	for name, in := range cases {
		if _, err := ParseTraceparent(in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, in)
		}
	}
	// Forward compatibility: a future version with trailing data parses.
	future := "01" + valid[2:] + "-aabbcc"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("future version %q rejected: %v", future, err)
	}
}

// FuzzParseTraceparent: the decoder of a header every client controls must
// never panic, and any header it accepts must re-encode to the same
// trace-id, parent-id and flags, so the caller's trace ID and the server's
// traces.jsonl record match as strings.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0")
	f.Add("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what-the-future-will-be-like")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if got := tc.Traceparent(); got[3:55] != s[3:55] {
			t.Errorf("ParseTraceparent(%q) re-encodes as %q", s, got)
		}
	})
}

func TestSamplerHeadDecisionDeterministic(t *testing.T) {
	a := NewSampler(0.5, 0, 0)
	b := NewSampler(0.5, 0, 0)
	var kept int
	const n = 2000
	for i := 0; i < n; i++ {
		tc := NewTraceContext()
		if a.Sampled(tc) != b.Sampled(tc) {
			t.Fatal("two samplers at the same probability disagree on the same trace ID")
		}
		if a.Sampled(tc) {
			kept++
		}
	}
	// 0.5 ± 5 sigma on n=2000 draws.
	if kept < n/2-250 || kept > n/2+250 {
		t.Errorf("head sampling at p=0.5 kept %d/%d", kept, n)
	}
	all := NewSampler(1, 0, 0)
	none := NewSampler(0, 0, 0)
	tc := NewTraceContext()
	if !all.Sampled(tc) {
		t.Error("p=1 sampler dropped a trace")
	}
	if none.Sampled(tc) {
		t.Error("p=0 sampler kept a trace")
	}
}

func TestSamplerKeepPolicy(t *testing.T) {
	s := NewSampler(0, 0, 10*time.Millisecond) // no head sampling, uncapped
	if s.Keep(false, time.Millisecond, false) {
		t.Error("kept a fast, successful, unsampled request")
	}
	if !s.Keep(false, time.Millisecond, true) {
		t.Error("dropped an error")
	}
	if !s.Keep(false, 10*time.Millisecond, false) {
		t.Error("dropped a request at the slow threshold")
	}
	if !s.Keep(true, time.Millisecond, false) {
		t.Error("dropped a head-sampled request")
	}
	noSlow := NewSampler(0, 0, 0)
	if noSlow.Keep(false, time.Hour, false) {
		t.Error("slow rule fired with the threshold disabled")
	}
}

// TestSamplerRateCapProperty is the cap property test: however the load is
// shaped — all errors, all head-sampled, mixed — kept traces per simulated
// second never exceed maxPerSec plus the one-second burst allowance.
func TestSamplerRateCapProperty(t *testing.T) {
	const maxPerSec = 50.0
	for _, tt := range []struct {
		name string
		head bool
		err  bool
	}{
		{"errors", false, true},
		{"head-sampled", true, false},
		{"mixed", true, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSampler(0, maxPerSec, 0)
			var now int64
			s.nowNS = func() int64 { return now }
			s.last = now
			const (
				seconds = 10
				perSec  = 10000 // 200x oversubscribed
			)
			var kept int
			for i := 0; i < seconds*perSec; i++ {
				now += int64(time.Second) / perSec
				if s.Keep(tt.head, time.Microsecond, tt.err) {
					kept++
				}
			}
			// The bucket holds maxPerSec of burst, so seconds of sustained
			// load can keep at most (seconds+1)*maxPerSec.
			limit := int((seconds + 1) * maxPerSec)
			if kept > limit {
				t.Errorf("kept %d traces in %ds at cap %.0f/s, want <= %d", kept, seconds, maxPerSec, limit)
			}
			// And the cap is a budget, not a blackout: sustained load should
			// get most of it.
			if kept < int(seconds*maxPerSec)/2 {
				t.Errorf("kept %d traces, want >= %d (cap under-delivering)", kept, int(seconds*maxPerSec)/2)
			}
		})
	}
}

func TestSamplerUncappedAndNil(t *testing.T) {
	s := NewSampler(1, 0, 0)
	for i := 0; i < 1000; i++ {
		if !s.Keep(true, 0, false) {
			t.Fatal("uncapped sampler dropped a kept trace")
		}
	}
	var nilS *Sampler
	if nilS.Sampled(NewTraceContext()) {
		t.Error("nil sampler head-sampled a trace")
	}
	if nilS.Keep(true, time.Hour, true) {
		t.Error("nil sampler kept a trace")
	}
}

func TestNilTracingAllocFree(t *testing.T) {
	var s *Sampler
	var tl *TraceLog
	tc := NewTraceContext()
	if n := testing.AllocsPerRun(200, func() {
		_ = s.Sampled(tc)
		_ = s.Keep(true, time.Second, true)
		if err := tl.Append(TraceRecord{}); err != nil {
			t.Fatal(err)
		}
		_ = tl.Len()
	}); n != 0 {
		t.Errorf("nil sampler/trace-log paths allocate %.1f/op, want 0", n)
	}
}

func TestSamplerEnabledPathAllocFree(t *testing.T) {
	s := NewSampler(0.5, 100, time.Millisecond)
	tc := NewTraceContext()
	if n := testing.AllocsPerRun(200, func() {
		_ = s.Sampled(tc)
		_ = s.Keep(true, time.Microsecond, false)
	}); n != 0 {
		t.Errorf("enabled sampler path allocates %.1f/op, want 0", n)
	}
}

func TestTraceLogAppendReadBack(t *testing.T) {
	dir := t.TempDir()
	run, err := OpenRunDir(dir, &RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// No traces kept yet: the artifact must not exist.
	if _, err := os.Stat(filepath.Join(dir, TracesFile)); !os.IsNotExist(err) {
		t.Fatalf("traces.jsonl exists before any Append (stat err %v)", err)
	}
	sp := StartSpan("client(decide)")
	sp.End()
	recs := []TraceRecord{
		{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), Kind: TraceKindClient, RequestID: "r-1", Span: sp},
		{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("ef", 8), ParentSpanID: strings.Repeat("cd", 8), Kind: TraceKindServer, Span: sp},
	}
	for _, r := range recs {
		if err := run.Traces().Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := run.Traces().Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	if err := run.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []TraceRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad traces.jsonl line %q: %v", sc.Text(), err)
		}
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i, r := range got {
		if r.V != SchemaVersion {
			t.Errorf("record %d: v = %d, want %d", i, r.V, SchemaVersion)
		}
		if r.TraceID != recs[i].TraceID || r.SpanID != recs[i].SpanID || r.Kind != recs[i].Kind {
			t.Errorf("record %d: got %+v, want %+v", i, r, recs[i])
		}
	}
	if got[1].ParentSpanID != recs[1].ParentSpanID {
		t.Errorf("server record lost parent_span_id: %+v", got[1])
	}
}

// TestTraceLogAppendAfterCloseKeepsFile: a handler that outlives the drain
// appends after RunDir.Close. That append must fail and leave the traces
// already persisted in place, not re-create the file.
func TestTraceLogAppendAfterCloseKeepsFile(t *testing.T) {
	dir := t.TempDir()
	run, err := OpenRunDir(dir, &RunInfo{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	rec := TraceRecord{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), Kind: TraceKindServer}
	for i := 0; i < 3; i++ {
		if err := run.Traces().Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := run.Traces().Append(rec); err == nil {
		t.Error("Append after Close returned no error")
	}
	data, err := os.ReadFile(filepath.Join(dir, TracesFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Errorf("traces.jsonl has %d lines after a late Append, want 3", n)
	}
}

func TestCountAtOrBelow(t *testing.T) {
	h := NewHistogram(DefaultPrecision)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.CountAtOrBelow(-1); got != 0 {
		t.Errorf("CountAtOrBelow(-1) = %d, want 0", got)
	}
	if got := s.CountAtOrBelow(s.Max); got != s.Count {
		t.Errorf("CountAtOrBelow(max) = %d, want %d", got, s.Count)
	}
	if got := s.CountAtOrBelow(math.MaxInt64); got != s.Count {
		t.Errorf("CountAtOrBelow(MaxInt64) = %d, want %d", got, s.Count)
	}
	// Conservative but tight: never overcounts, undershoots by at most one
	// bucket's width.
	for _, v := range []int64{1, 7, 100, 127, 128, 500, 999} {
		got := s.CountAtOrBelow(v)
		if got > v {
			t.Errorf("CountAtOrBelow(%d) = %d overcounts (true %d)", v, got, v)
		}
		slack := v >> uint(s.Precision)
		if got < v-slack-1 {
			t.Errorf("CountAtOrBelow(%d) = %d, want >= %d (one-bucket slack)", v, got, v-slack-1)
		}
	}
	if got := (HistogramSnapshot{}).CountAtOrBelow(10); got != 0 {
		t.Errorf("empty snapshot: CountAtOrBelow = %d, want 0", got)
	}
}

func TestBuildIdentity(t *testing.T) {
	version, commit := BuildIdentity()
	if version == "" || commit == "" {
		t.Errorf("BuildIdentity() = %q, %q: want non-empty labels", version, commit)
	}
}

func BenchmarkTraceparentRoundTrip(b *testing.B) {
	tc := NewTraceContext().WithSampled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr := tc.Traceparent()
		got, err := ParseTraceparent(hdr)
		if err != nil {
			b.Fatal(err)
		}
		tc = got
	}
}

func BenchmarkSamplerKeep(b *testing.B) {
	s := NewSampler(0.01, 100, time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Keep(i%100 == 0, time.Microsecond, false)
	}
}

func BenchmarkNilSamplerKeep(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Keep(true, time.Microsecond, true)
	}
}
