// Command report reads run artifacts — the directories the other CLIs
// write under -out — back into answers. It is the consumer the write side
// (internal/obs) was built for: tables regenerated from persisted results,
// an accuracy-drift gate between two runs, and a profile of where the wall
// clock went.
//
// Usage:
//
//	report tables <rundir>                    # rebuild the experiment tables
//	                                          # from results.jsonl
//	report tables -format csv <rundir>        # ...as csv (long form) or json
//	report diff <base-rundir> <new-rundir>    # accudiff: gate on accuracy
//	                                          # drift between two runs
//	report diff -tol 0.002 -alpha 0.01 -q base new
//	report trace <rundir>                     # span profile: per-path
//	                                          # total/self, hot path,
//	                                          # counters, worker utilization
//	report trace -top 10 <rundir>
//	report trace -folded <rundir>             # folded stacks for
//	                                          # flamegraph.pl / speedscope
//	report trace <client-rundir> <server-rundir>  # cross-process assembly:
//	                                          # join sampled traces.jsonl
//	                                          # halves by W3C trace ID and
//	                                          # render the merged trees
//	report latency <rundir>                   # quantile tables from a
//	                                          # loadgen run's histograms.json
//	report latency -format csv <rundir>       # ...as csv or json rows
//	report latency <base-rundir> <new-rundir> # latdiff: gate on a quantile
//	                                          # regression between two runs
//	report latency -quantile 0.999 -tol 0.25 base new
//	report slo -availability 0.999 <rundir>   # SLO compliance + error budget
//	report slo -latency-objective 100ms -latency-target 0.99 <rundir>
//	report watch http://127.0.0.1:8080        # per-poll rate/p50/p99/burn from
//	                                          # consecutive scrapes of a
//	                                          # running advisord's /metrics
//	report watch -format json http://...      # one JSON object per poll
//
// `report diff` and `report latency base new` mirror cmd/benchdiff's
// exit-status convention (see internal/exitcode): 0 when the runs agree
// within tolerance, 1 on a significant regression (accuracy drift beyond
// -tol or a rule-verdict flip for diff; a gated-quantile regression beyond
// -tol plus the histograms' bucket error for latency), 2 on usage or parse
// errors, and 3 when the comparison is vacuous — the base run directory is
// missing or the two runs share zero aligned entries. CI gates on it the
// same way it gates on benchdiff: both 1 and 3 fail the job, but 3 tells
// the operator to fix the baseline, not the code. Read-only subcommands
// (tables, trace, one-run latency) also exit 3 when pointed at a missing
// run directory or one whose artifacts cannot answer the question — the
// directory is not evidence of anything, which is vacuous, not a usage
// mistake.
//
// Artifacts carry a schema version (manifest schema_version, per-line "v");
// report refuses versions newer than it understands instead of misreading
// them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"hamlet/internal/exitcode"
	"hamlet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the full CLI —
// subcommand routing, flags, rendering, and exit-code policy — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return exitcode.Usage
	}
	switch args[0] {
	case "tables":
		return runTables(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	case "latency":
		return runLatency(args[1:], stdout, stderr)
	case "slo":
		return runSLO(args[1:], stdout, stderr)
	case "watch":
		return runWatch(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return exitcode.OK
	default:
		fmt.Fprintf(stderr, "report: unknown subcommand %q\n", args[0])
		usage(stderr)
		return exitcode.Usage
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: report <subcommand> [flags] <args>

subcommands:
  tables  <rundir>          rebuild experiment tables from results.jsonl
                            (-format text|csv|json)
  diff    <base> <new>      gate on accuracy drift between two run dirs
                            (exit 0 clean, 1 drift, 3 vacuous — as benchdiff)
  trace   <rundir>          profile the span tree: per-path total/self time,
                            hot path, counter rollups, worker utilization
                            (-folded emits flamegraph.pl/speedscope stacks)
  trace   <client> <server> cross-process assembly: join the two runs'
                            sampled traces.jsonl by W3C trace ID and render
                            the merged client+server trees with skew and
                            net+queue time
  latency <rundir>          quantile tables from a loadgen run's histograms
                            (-format text|csv|json)
  latency <base> <new>      gate a latency quantile between two loadgen runs
                            (-quantile Q -tol T; exit codes as diff)
  slo     <rundir>          SLO compliance and error-budget burn from a
                            run's telemetry (-availability T,
                            -latency-objective D -latency-target T;
                            multi-window 5m/1h burn rates when the run has
                            per-request events; exit 1 when a budget is
                            exhausted, 3 when no SLI could be computed)
  watch   <url>             per-poll rate, p50/p99 and SLO burn, differenced
                            between consecutive scrapes of an advisord
                            /metrics endpoint (-interval D -count N
                            -format text|json; exit 3 when every poll fails;
                            for a finished run's latency use
                            report latency <rundir>)
`)
}

// loadRun loads a run directory for a read-only subcommand, mapping the two
// non-answers to the gate convention: a missing directory (or one missing
// its manifest) is vacuous — there is nothing to report on — while a
// present-but-unreadable one is a usage/parse error.
func loadRun(dir string, stderr io.Writer) (*report.Run, int) {
	r, err := report.Load(dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			fmt.Fprintf(stderr, "report: %s is not a run directory (missing or no %s); nothing to report\n", dir, "manifest.json")
			return nil, exitcode.Vacuous
		}
		fmt.Fprintf(stderr, "report: %v\n", err)
		return nil, exitcode.Usage
	}
	return r, exitcode.OK
}

func runTables(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, csv (long form), or json")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: report tables [-format text|csv|json] <rundir>")
		return exitcode.Usage
	}
	r, code := loadRun(fs.Arg(0), stderr)
	if code != exitcode.OK {
		return code
	}
	var err error
	switch *format {
	case "text":
		err = r.WriteTables(stdout)
	case "csv":
		err = r.WriteTablesCSV(stdout)
	case "json":
		err = r.WriteTablesJSON(stdout)
	default:
		fmt.Fprintf(stderr, "report: unknown -format %q (want text, csv, or json)\n", *format)
		return exitcode.Usage
	}
	if err != nil {
		// The run loaded but carries no result rows: a real run directory
		// from a non-experiments tool. That is "nothing to render", not a
		// usage mistake.
		fmt.Fprintf(stderr, "report: %v\n", err)
		return exitcode.Vacuous
	}
	return exitcode.OK
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := report.DefaultDiffOptions
	fs.Float64Var(&opt.Tol, "tol", opt.Tol, "absolute tolerance on a measure column's mean delta")
	fs.Float64Var(&opt.Alpha, "alpha", opt.Alpha, "Welch significance level when both sides carry repeated samples")
	quiet := fs.Bool("q", false, "print only drifts and the summary line")
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: report diff [-tol T] [-alpha A] [-q] <base-rundir> <new-rundir>")
		return exitcode.Usage
	}
	base, err := report.Load(fs.Arg(0))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			fmt.Fprintf(stderr, "report: baseline run dir %s does not exist; nothing to gate against (generate it with `experiments -out`, or commit a baseline run dir)\n", fs.Arg(0))
			return exitcode.Vacuous
		}
		fmt.Fprintf(stderr, "report: %v\n", err)
		return exitcode.Usage
	}
	next, code := loadRun(fs.Arg(1), stderr)
	if code != exitcode.OK {
		return code
	}
	rep := report.Diff(base, next, opt)
	if rep.AlignedKeys == 0 {
		fmt.Fprintf(stderr, "report: no aligned result keys between %s (%d rows) and %s (%d rows); the comparison is vacuous, not a pass\n",
			fs.Arg(0), len(base.Results), fs.Arg(1), len(next.Results))
		return exitcode.Vacuous
	}
	if !*quiet {
		fmt.Fprintf(stdout, "accudiff %s vs %s\n", fs.Arg(0), fs.Arg(1))
	}
	fmt.Fprintf(stdout, "aligned %d keys, compared %d cells (tol=%g, alpha=%g)", rep.AlignedKeys, rep.ComparedCells, opt.Tol, opt.Alpha)
	if len(rep.OnlyBase) > 0 || len(rep.OnlyNew) > 0 {
		fmt.Fprintf(stdout, " (%d only in base, %d only in new)", len(rep.OnlyBase), len(rep.OnlyNew))
	}
	fmt.Fprintln(stdout)
	if !*quiet {
		for _, k := range rep.OnlyBase {
			fmt.Fprintf(stdout, "only in base: %s\n", k)
		}
		for _, k := range rep.OnlyNew {
			fmt.Fprintf(stdout, "only in new: %s\n", k)
		}
	}
	if len(rep.Drifts) == 0 {
		fmt.Fprintln(stdout, "no accuracy drift")
		return exitcode.OK
	}
	fmt.Fprintf(stdout, "DRIFT: %d cell(s) beyond tolerance:\n", len(rep.Drifts))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	for _, d := range rep.Drifts {
		kind := "measure"
		if d.Decision {
			kind = "VERDICT FLIP"
		}
		where := d.Table
		if d.Key != "" {
			where += " [" + d.Key + "]"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s -> %s\t%s\t%s\n",
			d.Experiment, where, d.Column, d.Old, d.New, kind, pNote(d))
	}
	tw.Flush()
	return exitcode.Failed
}

// pNote renders a drift's statistical backing.
func pNote(d report.Drift) string {
	if d.Decision || math.IsNaN(d.P) {
		return ""
	}
	return fmt.Sprintf("p=%.3f", d.P)
}

func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 15, "show the top N paths by self time (0 = all)")
	folded := fs.Bool("folded", false, "emit folded stacks (path;path;leaf self_µs) for flamegraph.pl or speedscope instead of the profile")
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: report trace [-top N] [-folded] <rundir> [<server-rundir>]")
		return exitcode.Usage
	}
	if fs.NArg() == 2 {
		if *folded {
			fmt.Fprintln(stderr, "report: -folded applies to the single-run profile, not the cross-process assembly")
			return exitcode.Usage
		}
		return runTraceAssembly(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	r, code := loadRun(fs.Arg(0), stderr)
	if code != exitcode.OK {
		return code
	}
	p := report.NewProfile(r.Trace)
	if p == nil {
		fmt.Fprintf(stderr, "report: %s carries no span tree (run with -trace or any -out to record one)\n", fs.Arg(0))
		return exitcode.Vacuous
	}
	if *folded {
		if err := p.WriteFolded(stdout); err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return exitcode.Usage
		}
		return exitcode.OK
	}
	fmt.Fprintf(stdout, "trace profile: %s — %.1fms wall, %d spans (from trace.json)\n\n", p.Root, p.RootMS, p.Spans)

	fmt.Fprintln(stdout, "hot path (longest child at each level):")
	for i, h := range p.Hot {
		fmt.Fprintf(stdout, "  %*s%s  %.1fms  %.1f%%\n", 2*i, "", h.Name, h.DurationMS, 100*h.FracRoot)
	}
	fmt.Fprintln(stdout)

	paths := p.Paths
	if *top > 0 && len(paths) > *top {
		paths = paths[:*top]
	}
	fmt.Fprintf(stdout, "top %d paths by self time (of %d):\n", len(paths), len(p.Paths))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  path\tcount\ttotal\tself\tself%")
	for _, ps := range paths {
		frac := 0.0
		if p.RootMS > 0 {
			frac = ps.SelfMS / p.RootMS
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1fms\t%.1fms\t%.1f%%\n", ps.Path, ps.Count, ps.TotalMS, ps.SelfMS, 100*frac)
	}
	tw.Flush()
	fmt.Fprintln(stdout)

	if len(p.Counters) > 0 {
		fmt.Fprintln(stdout, "counter rollups:")
		ctw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, c := range p.Counters {
			fmt.Fprintf(ctw, "  %s\t%d\n", c.Name, c.Total)
		}
		ctw.Flush()
		fmt.Fprintln(stdout)
	}

	if p.Util != nil {
		fmt.Fprintf(stdout, "workers: avg %.2f concurrent (busy %.1fms over %.1fms wall), peak %d, %d leaf spans\n",
			p.Util.Avg, p.Util.BusyMS, p.Util.WallMS, p.Util.Peak, p.Util.Leaves)
	}
	return exitcode.OK
}

// runTraceAssembly joins two runs' sampled traces.jsonl halves by trace ID
// — typically a loadgen client dir and the advisord server dir it drove —
// and renders the merged cross-process trees.
func runTraceAssembly(clientDir, serverDir string, stdout, stderr io.Writer) int {
	client, code := loadRun(clientDir, stderr)
	if code != exitcode.OK {
		return code
	}
	server, code := loadRun(serverDir, stderr)
	if code != exitcode.OK {
		return code
	}
	asm := report.AssembleTraces(client, server)
	if err := asm.Write(stdout); err != nil {
		// Both runs loaded but neither kept a sampled trace: nothing to
		// assemble is vacuous, not a usage mistake.
		fmt.Fprintf(stderr, "%v\n", err)
		return exitcode.Vacuous
	}
	return exitcode.OK
}

// runSLO evaluates SLO compliance and error-budget burn for one run dir.
func runSLO(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report slo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	avail := fs.Float64("availability", 0, "availability target in [0,1) (0.999 = three nines; 0 = skip)")
	latObj := fs.Duration("latency-objective", 0, "latency objective the latency SLO bounds (0 = skip)")
	latTgt := fs.Float64("latency-target", 0.99, "fraction of requests that must meet -latency-objective")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: report slo [-availability T] [-latency-objective D] [-latency-target T] <rundir>")
		return exitcode.Usage
	}
	if *avail < 0 || *avail >= 1 {
		fmt.Fprintln(stderr, "report: -availability must be in [0, 1)")
		return exitcode.Usage
	}
	if *latTgt <= 0 || *latTgt >= 1 {
		fmt.Fprintln(stderr, "report: -latency-target must be in (0, 1)")
		return exitcode.Usage
	}
	if *avail == 0 && *latObj == 0 {
		fmt.Fprintln(stderr, "report: configure at least one SLO (-availability and/or -latency-objective)")
		return exitcode.Usage
	}
	r, code := loadRun(fs.Arg(0), stderr)
	if code != exitcode.OK {
		return code
	}
	rep := r.SLO(report.SLOOptions{
		Availability:     *avail,
		LatencyObjective: *latObj,
		LatencyTarget:    *latTgt,
	})
	rep.Write(stdout, fs.Arg(0))
	switch {
	case rep.Vacuous():
		fmt.Fprintf(stderr, "report: %s carries no telemetry for the configured SLOs; nothing to gate\n", fs.Arg(0))
		return exitcode.Vacuous
	case rep.Exhausted():
		return exitcode.Failed
	default:
		return exitcode.OK
	}
}

// runLatency renders one loadgen run's quantile tables, or gates a latency
// quantile between two runs ("latdiff").
func runLatency(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report latency", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := report.DefaultLatencyDiffOptions
	fs.Float64Var(&opt.Quantile, "quantile", opt.Quantile, "quantile the two-run gate compares (0.99 = p99)")
	fs.Float64Var(&opt.Tol, "tol", opt.Tol, "relative regression tolerance on the gated quantile (0.10 = +10%); the histograms' bucket error is added on top")
	format := fs.String("format", "text", "single-run output format: text, csv, or json")
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: report latency [-quantile Q] [-tol T] [-format text|csv|json] <rundir> [<new-rundir>]")
		return exitcode.Usage
	}
	if fs.NArg() == 2 && *format != "text" {
		fmt.Fprintln(stderr, "report: -format applies to the single-run table, not the two-run gate")
		return exitcode.Usage
	}
	base, code := loadRun(fs.Arg(0), stderr)
	if code != exitcode.OK {
		return code
	}

	if fs.NArg() == 1 {
		var err error
		switch *format {
		case "text":
			err = base.WriteLatency(stdout)
		case "csv":
			err = base.WriteLatencyCSV(stdout)
		case "json":
			err = base.WriteLatencyJSON(stdout)
		default:
			fmt.Fprintf(stderr, "report: unknown -format %q (want text, csv, or json)\n", *format)
			return exitcode.Usage
		}
		if err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			return exitcode.Vacuous
		}
		return exitcode.OK
	}

	next, code := loadRun(fs.Arg(1), stderr)
	if code != exitcode.OK {
		return code
	}
	rep := report.LatencyDiff(base, next, opt)
	if len(rep.Deltas) == 0 {
		fmt.Fprintf(stderr, "report: no aligned histograms between %s (%d) and %s (%d); the comparison is vacuous, not a pass\n",
			fs.Arg(0), len(base.Histograms), fs.Arg(1), len(next.Histograms))
		return exitcode.Vacuous
	}
	fmt.Fprintf(stdout, "latdiff %s vs %s — p%g, tol +%.0f%% (+ bucket error)\n",
		fs.Arg(0), fs.Arg(1), 100*rep.Quantile, 100*opt.Tol)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "histogram\tbase\tnew\tdelta\tverdict")
	for _, d := range rep.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\t%s\n", d.Name, ns(d.Base), ns(d.New), 100*d.Rel, verdict)
	}
	tw.Flush()
	for _, name := range rep.OnlyBase {
		fmt.Fprintf(stdout, "only in base: %s\n", name)
	}
	for _, name := range rep.OnlyNew {
		fmt.Fprintf(stdout, "only in new: %s\n", name)
	}
	if n := rep.Regressions(); n > 0 {
		fmt.Fprintf(stdout, "REGRESSION: %d histogram(s) beyond tolerance\n", n)
		return exitcode.Failed
	}
	fmt.Fprintln(stdout, "no latency regression")
	return exitcode.OK
}

// ns renders a nanosecond latency as a duration string.
func ns(v int64) time.Duration { return time.Duration(v) }

// runWatch polls a live /metrics endpoint (an http[s]:// target) and
// renders each poll interval's rate, quantiles and burns. It is a view, not
// a gate: `report latency` and `report slo` judge latency.
func runWatch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	interval := fs.Duration("interval", time.Second, "poll period")
	count := fs.Int("count", 0, "number of polls (0 = watch until interrupted)")
	format := fs.String("format", "text", "output format: text, or json (one object per poll plus a summary object)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: report watch [-interval D] [-count N] [-format text|json] <url>")
		return exitcode.Usage
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "report: unknown -format %q (want text or json)\n", *format)
		return exitcode.Usage
	}
	target := fs.Arg(0)
	if !strings.HasPrefix(target, "http://") && !strings.HasPrefix(target, "https://") {
		fmt.Fprintf(stderr, "report: watch polls a live http(s):// /metrics endpoint; for a run directory's latency use `report latency %s`\n", target)
		return exitcode.Usage
	}
	url := target
	if !strings.Contains(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}
	res := report.Watch(stdout, report.MetricsSource(nil, url), report.WatchOptions{
		Target:   target,
		Interval: *interval,
		Polls:    *count,
		Format:   *format,
	})
	if res.Failures == res.Polls {
		// Nothing answered: there is no evidence either way.
		return exitcode.Vacuous
	}
	return exitcode.OK
}
