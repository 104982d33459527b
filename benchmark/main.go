// Command benchmark is the repository's benchmark. It runs five workloads
// over the two end-to-end paths of the join advisor — the served decision
// (HTTP → handler → registry → DecideFromStats) and the paper's
// Analyze / Monte Carlo pipeline — checks every output, and prints every
// metric as "workload metric value unit", then one JSON object as the last
// line of standard output.
//
//	sh benchmark/run.sh                                  # all workloads, untraced
//	sh benchmark/run.sh --workload serve-hot --seed 3 --seconds 10
//	sh benchmark/run.sh --workload analyze --trace 1     # per-layer metrics
//
// Each workload runs in its own child process (a re-exec of this binary),
// so its set-up, heap and peak RSS belong to it alone. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hamlet/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

// options are the parsed flags.
type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     int
	traceDir  string
	out       string
	child     bool
}

func parse(args []string, stderr io.Writer) (options, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each workload's timed window")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes <workload>/trace.json")
	fs.StringVar(&o.out, "out", "", "also write the summary JSON here")
	fs.BoolVar(&o.child, "child", false, "run the one named workload in this process (internal)")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return o, nil, fmt.Errorf("usage: benchmark [--workload a,b] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]")
	}
	if *names == "all" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, err := workloadByName(n)
			if err != nil {
				return o, nil, err
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if o.child && len(o.workloads) != 1 {
		return o, nil, fmt.Errorf("-child runs exactly one workload")
	}
	return o, fs, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, fs, err := parse(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	if o.child {
		return runChild(o, fs, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// runChild runs one workload in this process and prints its result as JSON.
func runChild(o options, fs *flag.FlagSet, stdout, stderr io.Writer) int {
	w := o.workloads[0]
	cfg := runCfg{seed: o.seed, dur: time.Duration(o.seconds * float64(time.Second))}
	var r *result
	var err error
	if o.trace == 1 {
		r, err = trace(w, cfg, o.traceDir, fs)
	} else {
		r, err = measure(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return exitCode([]*result{r})
}

// meta describes the run: code, toolchain, machine and settings.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

// summary is the -out file.
type summary struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

// runParent runs each workload in a child process and reports them all.
func runParent(o options, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	_, commit := obs.BuildIdentity()
	s := summary{Meta: meta{
		Commit: commit, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		Seed: o.seed, Clients: min(2, runtime.NumCPU()), Seconds: o.seconds, Trace: o.trace,
	}}
	m := s.Meta
	fmt.Fprintf(stdout, "# commit=%s go=%s %s/%s cpus=%d gomaxprocs=%d cpu=%q seed=%d clients=%d seconds=%g trace=%d\n",
		m.Commit, m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.Seed, m.Clients, m.Seconds, m.Trace)
	for _, w := range o.workloads {
		r, err := runInChild(ctx, self, w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		s.Results = append(s.Results, r)
		printResult(stdout, r)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(s, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: write summary:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(lastLine(s.Results)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return exitCode(s.Results)
}

// runInChild re-executes this binary for one workload and parses its result.
func runInChild(ctx context.Context, self string, w workload, o options, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-trace-dir", o.traceDir)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var r result
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &r, nil
}

// printResult prints one workload's header, metrics and error rate.
func printResult(w io.Writer, r *result) {
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, r.Info[k])
	}
	fmt.Fprintf(w, "# %s:%s attempted=%d failed=%d\n", r.Workload, b.String(), r.Attempted, r.Failed)
	for _, m := range metricOrder(r) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s error_rate %.6g fraction\n", r.Workload, r.ErrorRate)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# %s check failed: %s\n", r.Workload, p)
	}
}

// namedMetric is a metric with its name.
type namedMetric struct {
	name string
	metric
}

// metricOrder lists a result's gated then ungated metrics in definition
// order.
func metricOrder(r *result) []namedMetric {
	var out []namedMetric
	for _, set := range []map[string]metric{r.Metrics, r.Ungated} {
		for _, m := range endToEnd {
			if v, ok := set[m.name]; ok {
				out = append(out, namedMetric{m.name, v})
			}
		}
		for _, m := range perLayer {
			if v, ok := set[m.name]; ok {
				out = append(out, namedMetric{m.name, v})
			}
		}
	}
	return out
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// lastLine folds the results into the last line; with several workloads
// each metric is keyed "<workload>.<metric>".
func lastLine(rs []*result) line {
	l := line{Correct: exitCode(rs) == 0, Metrics: map[string]metric{}}
	for _, r := range rs {
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(rs) > 1 {
				n = r.Workload + "." + n
			}
			l.Metrics[n] = m
		}
	}
	return l
}
