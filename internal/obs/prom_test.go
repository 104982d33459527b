package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"relational.joins":         "relational_joins",
		"advisord.request_latency": "advisord_request_latency",
		"ok_name:with:colons":      "ok_name:with:colons",
		"9starts_with_digit":       "_9starts_with_digit",
		"spaces and-dashes":        "spaces_and_dashes",
		"":                         "_",
		"loadgen.errors_non2xx":    "loadgen_errors_non2xx",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func TestPromWriterScalarsAndEscaping(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Type("x_total", "counter", "Help text.")
	p.Type("x_total", "counter", "duplicate header must not repeat")
	p.Int("x_total", nil, 42)
	p.Value("g", []string{"path", `a"b\c` + "\n"}, 1.5)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total Help text.\n" +
		"# TYPE x_total counter\n" +
		"x_total 42\n" +
		`g{path="a\"b\\c\n"} 1.5` + "\n"
	if b.String() != want {
		t.Errorf("exposition =\n%s\nwant\n%s", b.String(), want)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewHistogram(DefaultPrecision)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms in ns
	}
	snap := h.Snapshot()

	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("dur_seconds", []string{"endpoint", "decide"}, snap, 1e-9)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		`dur_seconds_bucket{endpoint="decide",le="+Inf"} 1000`,
		`dur_seconds_sum{endpoint="decide"} `,
		`dur_seconds_count{endpoint="decide"} 1000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Buckets must be cumulative and monotone, ending exactly at the count,
	// and each le must be an HDR bucket's upper bound in seconds.
	var last float64
	var bucketLines int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dur_seconds_bucket{") || strings.Contains(line, "+Inf") {
			continue
		}
		bucketLines++
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not monotone at %q (prev %.0f)", line, last)
		}
		last = v
	}
	if bucketLines == 0 {
		t.Fatal("no finite bucket lines")
	}
	if last != 1000 {
		t.Errorf("last finite bucket = %.0f, want 1000 (all observations bounded)", last)
	}
}

// TestRegistryWriteProm pins the registry's exposition: every metric under
// hamlet_<PromName>, sorted by name within counters, then histograms, with
// histograms in raw observed units.
func TestRegistryWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Counter("a.count").Add(3)
	r.Histogram("c.hist").Observe(1)
	r.Histogram("c.hist").Observe(5)
	var b strings.Builder
	p := NewPromWriter(&b)
	r.WriteProm(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE hamlet_a_count counter
hamlet_a_count 3
# TYPE hamlet_z_last counter
hamlet_z_last 1
# TYPE hamlet_c_hist histogram
hamlet_c_hist_bucket{le="1"} 1
hamlet_c_hist_bucket{le="5"} 2
hamlet_c_hist_bucket{le="+Inf"} 2
hamlet_c_hist_sum 6
hamlet_c_hist_count 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
