package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hamlet/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload's child process reports. Metrics are the
// metrics BENCHMARK.json gates; Ungated are printed beside them.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Metrics   map[string]metric `json:"metrics"`
	Ungated   map[string]metric `json:"ungated,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Info      map[string]any    `json:"info"`
}

// endToEnd names the metrics an untraced run reports, in print order. The
// latency quantiles are printed but not gated: host interference moves each
// of them by more than 20% between runs (README.md, Calibration).
var endToEnd = []struct {
	name, unit string
	gated      bool
	value      func(w workload, ph *phase) float64
}{
	{"setup_s", "s", true, func(_ workload, ph *phase) float64 { return median(ph.setup) }},
	{"throughput_ops", "1/s", true, func(_ workload, ph *phase) float64 {
		return float64(ph.attempted-ph.failed) / ph.wall.Seconds()
	}},
	{"rss_peak_mb", "MB", true, func(_ workload, ph *phase) float64 { return ph.rssMB }},
	{"latency_p10_ms", "ms", false, func(_ workload, ph *phase) float64 { return quantile(ph.lat, 0.1) / 1e6 }},
	{"latency_p50_ms", "ms", false, func(_ workload, ph *phase) float64 { return quantile(ph.lat, 0.5) / 1e6 }},
	{"latency_tail_ms", "ms", false, func(w workload, ph *phase) float64 { return quantile(ph.lat, w.tail) / 1e6 }},
}

// layers is what the per-layer metrics are read from: span samples and
// counts of the workload's own phases, with a toy probe's standing in for
// any layer the workload never reaches.
type layers struct {
	vals   map[string][]float64
	counts map[string]float64
	plain  *phase // the untraced phase
	// overhead is the traced root's median over the untraced operation's.
	overhead float64
}

func (s *layers) q(key string, p, unit float64) float64 { return quantile(s.vals[key], p) / unit }

// perPass spreads a traced sample total over the traced passes.
func (s *layers) perPass(key string) float64 {
	return sum(s.vals[key]) / float64(len(s.vals["analyze.pass"])) / 1e6
}

// perOp divides a runtime counter of the untraced window by its operations.
func (s *layers) perOp(v float64) float64 { return v / float64(s.plain.attempted) }

const (
	nsPerUS = 1e3
	nsPerMS = 1e6
)

// perLayer names the metrics a traced run reports, in print order. The
// layer each moves and the end-to-end metric it feeds are in README.md.
var perLayer = []struct {
	name, unit string
	value      func(s *layers) float64
}{
	{"server.roundtrip_us_p50", "us", func(s *layers) float64 { return s.q("http.roundtrip", 0.50, nsPerUS) }},
	{"server.roundtrip_us_p99", "us", func(s *layers) float64 { return s.q("http.roundtrip", 0.99, nsPerUS) }},
	{"server.handler_us_p50", "us", func(s *layers) float64 { return s.q("server.handler", 0.50, nsPerUS) }},
	{"server.handler_us_p99", "us", func(s *layers) float64 { return s.q("server.handler", 0.99, nsPerUS) }},
	{"server.transport_us_p50", "us", func(s *layers) float64 { return s.q("server.transport", 0.50, nsPerUS) }},
	{"server.decode_us_p50", "us", func(s *layers) float64 { return s.q("server.decode", 0.50, nsPerUS) }},
	{"server.encode_us_p50", "us", func(s *layers) float64 { return s.q("server.encode", 0.50, nsPerUS) }},
	{"server.handler_self_us_p50", "us", func(s *layers) float64 { return s.q("server.handler_self", 0.50, nsPerUS) }},
	{"server.response_bytes", "B", func(s *layers) float64 {
		return s.counts["server.response_bytes"] / s.counts["server.responses"]
	}},
	{"registry.get_hit_ns_p50", "ns", func(s *layers) float64 { return s.q("registry.get", 0.50, 1) }},
	{"registry.get_miss_ms_p50", "ms", func(s *layers) float64 { return s.q("registry.get_miss", 0.50, nsPerMS) }},
	{"registry.get_miss_ms_p90", "ms", func(s *layers) float64 { return s.q("registry.get_miss", 0.90, nsPerMS) }},
	{"registry.hit_ratio", "ratio", func(s *layers) float64 {
		return 1 - s.counts["registry.misses"]/s.counts["registry.queries"]
	}},
	{"registry.entries", "count", func(s *layers) float64 { return s.counts["registry.entries"] }},
	{"registry.retained_mb_per_entry", "MB", func(s *layers) float64 {
		return s.counts["registry.heap_bytes"] / s.counts["registry.entries"] / 1e6
	}},
	{"synth.generate_ms_p50", "ms", func(s *layers) float64 { return s.q("synth.generate", 0.50, nsPerMS) }},
	{"synth.world_sample_ms_p50", "ms", func(s *layers) float64 { return s.q("synth.world_sample", 0.50, nsPerMS) }},
	{"core.collect_stats_ms_p50", "ms", func(s *layers) float64 { return s.q("core.collect_stats", 0.50, nsPerMS) }},
	{"core.decide_ns_p50", "ns", func(s *layers) float64 { return s.q("core.decide", 0.50, 1) }},
	{"core.join_opt_plan_ms_p50", "ms", func(s *layers) float64 { return s.q("core.join_opt_plan", 0.50, nsPerMS) }},
	{"dataset.materialize_joinall_ms_p50", "ms", func(s *layers) float64 {
		return s.q("dataset.materialize.joinall", 0.50, nsPerMS)
	}},
	{"dataset.materialize_joinopt_ms_p50", "ms", func(s *layers) float64 {
		return s.q("dataset.materialize.joinopt", 0.50, nsPerMS)
	}},
	{"dataset.cells_per_pass", "count", func(s *layers) float64 { return s.counts["dataset.cells_per_pass"] }},
	{"fs.select_ms_per_pass.forward.joinall", "ms", func(s *layers) float64 { return s.perPass("fs.select.forward.joinall") }},
	{"fs.select_ms_per_pass.forward.joinopt", "ms", func(s *layers) float64 { return s.perPass("fs.select.forward.joinopt") }},
	{"fs.select_ms_per_pass.mi.joinall", "ms", func(s *layers) float64 { return s.perPass("fs.select.mi.joinall") }},
	{"fs.select_ms_per_pass.mi.joinopt", "ms", func(s *layers) float64 { return s.perPass("fs.select.mi.joinopt") }},
	{"fs.evaluations_per_pass.forward.joinall", "count", func(s *layers) float64 {
		return s.counts["fs.evaluations_per_pass.forward.joinall"]
	}},
	{"fs.evaluations_per_pass.forward.joinopt", "count", func(s *layers) float64 {
		return s.counts["fs.evaluations_per_pass.forward.joinopt"]
	}},
	{"fs.evaluations_per_pass.mi.joinall", "count", func(s *layers) float64 {
		return s.counts["fs.evaluations_per_pass.mi.joinall"]
	}},
	{"fs.evaluations_per_pass.mi.joinopt", "count", func(s *layers) float64 {
		return s.counts["fs.evaluations_per_pass.mi.joinopt"]
	}},
	{"ml.evaluate_ms_p50", "ms", func(s *layers) float64 { return s.q("ml.evaluate", 0.50, nsPerMS) }},
	{"nb.stats_ms_p50", "ms", func(s *layers) float64 { return s.q("nb.stats", 0.50, nsPerMS) }},
	{"nb.fit_ms_p50", "ms", func(s *layers) float64 { return s.q("nb.fit", 0.50, nsPerMS) }},
	{"ml.predict_all_ms_p50", "ms", func(s *layers) float64 { return s.q("ml.predict_all", 0.50, nsPerMS) }},
	{"biasvar.run_world_ms_p50", "ms", func(s *layers) float64 { return s.q("biasvar.run_world", 0.50, nsPerMS) }},
	{"pool.cpu_util", "ratio", func(s *layers) float64 {
		return float64(s.plain.usage.cpu) / (float64(s.plain.wall) * float64(runtime.GOMAXPROCS(0)))
	}},
	{"go.alloc_bytes_per_op", "B", func(s *layers) float64 { return s.perOp(float64(s.plain.usage.alloc)) }},
	{"go.gc_cycles", "count", func(s *layers) float64 { return float64(s.plain.usage.gcs) }},
	{"go.gc_pause_total_ms", "ms", func(s *layers) float64 { return float64(s.plain.usage.pauseNS) / nsPerMS }},
	{"process.cpu_ms_per_op", "ms", func(s *layers) float64 { return s.perOp(float64(s.plain.usage.cpu)) / nsPerMS }},
	{"bench.trace_overhead_pct", "pct", func(s *layers) float64 { return s.overhead }},
}

// newResult starts a workload's result from the phases it ran.
func newResult(w workload, phases ...*phase) *result {
	r := &result{Workload: w.name, Metrics: map[string]metric{}, Info: phases[0].info}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		r.Problems = append(r.Problems, ph.problems...)
	}
	return r
}

// set records a metric in m; a value that is not finite fails the run.
func (r *result) set(m map[string]metric, name, unit string, v float64) {
	if !finite(v) {
		r.Problems = append(r.Problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// finish settles correctness once every metric is set.
func (r *result) finish() *result {
	r.Correct = r.Attempted > 0 && r.Failed == 0 && len(r.Problems) == 0
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
	return r
}

// measure runs the untraced phase and reports the end-to-end metrics.
func measure(w workload, cfg runCfg) (*result, error) {
	ph, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	r := newResult(w, ph)
	r.Ungated = map[string]metric{}
	for _, m := range endToEnd {
		dst := r.Metrics
		if !m.gated {
			dst = r.Ungated
		}
		r.set(dst, m.name, m.unit, m.value(w, ph))
	}
	r.Info["tail"] = fmt.Sprintf("p%g of %d operations", 100*w.tail, len(ph.lat))
	return r.finish(), nil
}

// probeDur is how long each toy probe of a traced run lasts.
const probeDur = 300 * time.Millisecond

// trace runs the workload untraced and then traced for half the window
// each, then the toy traced probes of the other workloads, writes the traced
// span tree as a run dir under dir/<workload>, and reports the per-layer
// metrics.
func trace(w workload, cfg runCfg, dir string, flags *flag.FlagSet) (*result, error) {
	half := cfg
	half.dur = cfg.dur / 2
	plain, err := w.run(half)
	if err != nil {
		return nil, err
	}
	traced := half
	traced.root = obs.StartSpan("workload(" + w.name + ")")
	traced.want = plain.analysis
	tph, err := w.run(traced)
	traced.root.End()
	if err != nil {
		return nil, err
	}
	phases := []*phase{plain, tph}
	src := &layers{vals: tph.vals, counts: plain.counts, plain: plain}
	for _, name := range probes {
		if name == w.name {
			continue
		}
		pw, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		pph, err := pw.run(runCfg{seed: cfg.seed, dur: probeDur, toy: true, root: obs.StartSpan("probe")})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pw.name, err)
		}
		phases = append(phases, pph)
		for k, v := range pph.vals {
			if _, ok := src.vals[k]; !ok {
				src.vals[k] = v
			}
		}
		for k, v := range pph.counts {
			if _, ok := src.counts[k]; !ok {
				src.counts[k] = v
			}
		}
	}
	src.overhead = 100 * (median(tph.vals[w.root])/median(plain.lat) - 1)

	rd, err := obs.OpenRunDir(filepath.Join(dir, w.name), obs.CollectRunInfo("benchmark", flags))
	if err != nil {
		return nil, err
	}
	if err := rd.Close(traced.root, nil); err != nil {
		return nil, err
	}

	r := newResult(w, phases...)
	for _, m := range perLayer {
		r.set(r.Metrics, m.name, m.unit, m.value(src))
	}
	r.Info["trace_dir"] = rd.Dir()
	r.Info["traced_ops"] = len(tph.lat)
	return r.finish(), nil
}

// exitCode is 0 only when there are results and every one is correct.
func exitCode(rs []*result) int {
	if len(rs) == 0 {
		return 1
	}
	for _, r := range rs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
