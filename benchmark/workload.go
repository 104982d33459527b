package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"hamlet/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports: the highest that has
	// at least ten samples beyond it at the full size.
	tail float64
	// root names the traced span that times the same call one untraced
	// operation times; bench.trace_overhead_pct compares the two.
	root string
	run  func(cfg runCfg) (*phase, error)
}

// workloads lists every workload in the order a full run executes them. The
// reasons each exists are in README.md and BENCHMARK.json.
var workloads = []workload{
	{"serve-hot", 0.99, "http.roundtrip", serveWorkload(serveSizes{
		scale: 1, batch: 1, bodies: 14, setupReps: 5,
	})},
	{"serve-batch", 0.99, "http.roundtrip", serveWorkload(serveSizes{
		scale: 1, batch: 100, bodies: 7, setupReps: 5,
	})},
	{"serve-cold", 0.99, "http.roundtrip", serveWorkload(serveSizes{
		scale: 1, batch: 1, bodies: 14, setupReps: 5, missRate: 10, missScale: 0.02,
	})},
	{"analyze", 0.90, "hamlet.analyze", analyzeWorkload(fullAnalyze)},
	{"montecarlo", 0.90, "biasvar.run", mcWorkload(fullMC)},
}

// probes are the workloads whose toy-size traced runs supply the per-layer
// metrics of layers another workload never reaches. Between them they reach
// every layer; serve-cold is the only workload that builds registry entries.
var probes = []string{"serve-cold", "analyze", "montecarlo"}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runCfg is what one phase of a workload runs with.
type runCfg struct {
	seed uint64
	// dur is how long the timed window lasts; a workload whose operations
	// come in passes finishes the pass it is in.
	dur time.Duration
	// toy selects the toy sizes: tests, and the probes of a traced run.
	toy bool
	// root, when set, makes the phase traced: every operation is timed in
	// spans adopted under root.
	root *obs.Span
	// tamper, when set, rewrites every response body the serve clients
	// read, so tests can show a wrong answer is caught.
	tamper func([]byte) []byte
	// golden is the analyze seed-1 golden file.
	golden []byte
	// want, when set, is the output every analyze pass must equal: a traced
	// phase is held to the untraced phase that ran before it.
	want []analysisOutput
}

// phase is what one run of a workload measured and checked.
type phase struct {
	setup []float64 // seconds per setup repetition
	// lat is the latency of every timed operation in ns; failed or wrong
	// operations are +Inf.
	lat       []float64
	wall      time.Duration
	attempted int
	failed    int
	problems  []string
	usage     usage   // process counters over the timed window
	rssMB     float64 // VmHWM right after the timed window
	// counts are exact counts read from return values.
	counts map[string]float64
	// vals are the traced span durations in ns, by span name.
	vals     map[string][]float64
	info     map[string]any // sizes and sample counts
	analysis []analysisOutput
	lanes    []*lane
	kept     atomic.Int64
}

func newPhase() *phase {
	return &phase{counts: map[string]float64{}, vals: map[string][]float64{}, info: map[string]any{}}
}

// problem records a failed check. Only the first few are kept verbatim.
func (ph *phase) problem(format string, args ...any) {
	if len(ph.problems) < maxProblems {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

const maxProblems = 10

// newLane returns a lane for one goroutine of a traced phase, nil when the
// phase is untraced.
func (ph *phase) newLane(root *obs.Span) *lane {
	if root == nil {
		return nil
	}
	l := &lane{root: root, kept: &ph.kept, vals: map[string][]float64{}}
	ph.lanes = append(ph.lanes, l)
	return l
}

// mergeLanes folds every lane's samples into the phase.
func (ph *phase) mergeLanes() {
	for _, l := range ph.lanes {
		for k, v := range l.vals {
			ph.vals[k] = append(ph.vals[k], v...)
		}
	}
	ph.lanes = nil
}

// keepOps bounds how many operation trees a traced phase writes to
// trace.json; the per-layer samples cover every operation.
const keepOps = 200

// lane is one goroutine's share of a traced phase. Operations are spans
// started with obs.StartSpan; each call into the program is a child span
// closed with done, which records its duration as a per-layer sample.
type lane struct {
	root *obs.Span
	kept *atomic.Int64
	vals map[string][]float64
}

// done ends sp and records its duration in ns under its name.
func (l *lane) done(sp *obs.Span) float64 {
	sp.End()
	d := float64(sp.Duration())
	l.add(sp.Name(), d)
	return d
}

// add records one sample under key.
func (l *lane) add(key string, v float64) {
	l.vals[key] = append(l.vals[key], v)
}

// finish ends an operation span and adopts it into the phase root while
// fewer than keepOps have been kept. The root ends with the last kept tree,
// so trace.json profiles exactly the window it samples.
func (l *lane) finish(op *obs.Span) {
	op.End()
	if n := l.kept.Add(1); n <= keepOps {
		l.root.Adopt(op)
		if n == keepOps {
			l.root.End()
		}
	}
}

// inputRNG returns the generator every input of a workload is drawn from,
// so the same seed gives the same inputs.
func inputRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908))
}

// drawSeed draws a positive generation seed (the server reads 0 as "use the
// default").
func drawSeed(rng *rand.Rand) uint64 {
	return rng.Uint64N(1_000_000) + 1
}

// median returns the middle value of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
