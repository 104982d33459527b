// Command benchdiff compares two benchmark snapshots and gates on perf
// regressions, closing the loop that scripts/bench.sh opens: bench.sh
// snapshots the suite per commit, benchdiff says whether the join-avoidance
// speedups (and everything else) held between two of them.
//
// Usage:
//
//	benchdiff old.json new.json            # any mix of formats
//	benchdiff -threshold 0.05 old.json new.json
//	go test -run '^$' -bench . -count 5 ./... > new.txt
//	benchdiff BENCH_2026-08-06.json new.txt
//
// Inputs may be bench.sh snapshots ({"meta": ..., "benchmarks": ...}) or
// raw `go test -bench` output. Benchmarks are aligned by name; with -count
// N samples on both sides, a Welch t-test (internal/stats) filters
// run-to-run noise at level -alpha. A benchmark with a single sample on
// either side falls back to the threshold alone, but a baseline with fewer
// than 2 samples for every aligned benchmark cannot gate anything and is
// rejected as vacuous.
//
// Exit status: 0 when no benchmark regressed beyond -threshold, 1 when at
// least one did (so CI can gate on it), 2 on usage or parse errors
// (including a negative -threshold or -memthreshold, or an -alpha outside
// (0, 1)), 3 when the comparison would be vacuous — the old (baseline)
// snapshot does not exist, the two snapshots share zero benchmark names, or
// the baseline has a single sample for every shared benchmark. The distinct
// code lets CI tell "the gate passed" from "the gate never ran": a missing
// or disjoint baseline must not masquerade as a clean pass. The convention
// is shared with `report diff` (see internal/exitcode).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"text/tabwriter"

	"hamlet/internal/bench"
	"hamlet/internal/exitcode"
)

// Exit codes follow the shared gate convention (internal/exitcode): CI
// gates on the difference between a real regression (1) and a comparison
// that never happened (3). cmd/report's diff subcommand uses the same
// codes for accuracy drift.
const (
	exitOK         = exitcode.OK
	exitRegression = exitcode.Failed
	exitUsage      = exitcode.Usage
	exitVacuous    = exitcode.Vacuous
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the full CLI —
// flags, parsing, report rendering, and exit-code policy — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "regression threshold on the ns/op delta (0.10 = 10% slower)")
	memThreshold := fs.Float64("memthreshold", 0.10, "regression threshold on the B/op and allocs/op deltas; applies only to benchmarks where both snapshots record memory (-benchmem)")
	alpha := fs.Float64("alpha", 0.05, "significance level for the Welch t-test when both sides have multiple samples")
	quiet := fs.Bool("q", false, "suppress the per-benchmark table; print only regressions and the geomean")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [flags] old.json new.json\n\ncompare two bench.sh snapshots (or raw `go test -bench` output) and exit 1 on regression\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return exitUsage
	}
	// Written as negations so that NaN is refused too.
	switch {
	case !(*threshold >= 0):
		fmt.Fprintln(stderr, "benchdiff: -threshold must be >= 0")
		return exitUsage
	case !(*memThreshold >= 0):
		fmt.Fprintln(stderr, "benchdiff: -memthreshold must be >= 0")
		return exitUsage
	case !(*alpha > 0 && *alpha < 1):
		fmt.Fprintln(stderr, "benchdiff: -alpha must be in (0, 1)")
		return exitUsage
	}
	oldSnap, err := bench.ParseFile(fs.Arg(0))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			fmt.Fprintf(stderr, "benchdiff: baseline snapshot %s does not exist; nothing to gate against (run scripts/bench.sh at the baseline commit, or commit its BENCH_*.json)\n", fs.Arg(0))
			return exitVacuous
		}
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return exitUsage
	}
	newSnap, err := bench.ParseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return exitUsage
	}
	rep := bench.Diff(oldSnap, newSnap)
	if len(rep.Deltas) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no overlapping benchmarks between %s (%d) and %s (%d); the comparison is vacuous, not a pass\n",
			fs.Arg(0), len(oldSnap.Benchmarks), fs.Arg(1), len(newSnap.Benchmarks))
		return exitVacuous
	}
	if singleSampleBaseline(rep) {
		fmt.Fprintf(stderr, "benchdiff: baseline %s has fewer than 2 samples for every one of the %d aligned benchmarks, so no delta can be t-tested; the comparison is vacuous, not a pass (regenerate it with scripts/bench.sh -count 5)\n",
			fs.Arg(0), len(rep.Deltas))
		return exitVacuous
	}
	regressions := rep.Regressions(*threshold, *alpha)
	memRegressions := rep.MemRegressions(*memThreshold, *alpha)
	if !*quiet {
		writeTable(stdout, rep, *threshold, *alpha)
	}
	fmt.Fprintf(stdout, "geomean: %+.2f%% over %d benchmarks", 100*(rep.Geomean-1), len(rep.Deltas))
	if len(rep.OnlyOld) > 0 || len(rep.OnlyNew) > 0 {
		fmt.Fprintf(stdout, " (%d only in old, %d only in new)", len(rep.OnlyOld), len(rep.OnlyNew))
	}
	fmt.Fprintln(stdout)
	failed := false
	if len(regressions) > 0 {
		failed = true
		fmt.Fprintf(stdout, "REGRESSION: %d benchmark(s) slower than %+.0f%%:\n", len(regressions), 100**threshold)
		for _, d := range regressions {
			fmt.Fprintf(stdout, "  %s %+.1f%% (%s -> %s)%s\n",
				d.Name, 100*d.Delta, ns(d.OldNs), ns(d.NewNs), pNote(d))
		}
	}
	if len(memRegressions) > 0 {
		failed = true
		fmt.Fprintf(stdout, "MEM REGRESSION: %d benchmark(s) allocating more than %+.0f%%:\n", len(memRegressions), 100**memThreshold)
		for _, d := range memRegressions {
			if d.BytesRegressed(*memThreshold, *alpha) {
				fmt.Fprintf(stdout, "  %s B/op %+.1f%% (%s -> %s)\n",
					d.Name, 100*d.BytesDelta, bytes(d.OldBytes), bytes(d.NewBytes))
			}
			if d.AllocsRegressed(*memThreshold, *alpha) {
				fmt.Fprintf(stdout, "  %s allocs/op %+.1f%% (%.0f -> %.0f)\n",
					d.Name, 100*d.AllocsDelta, d.OldAllocs, d.NewAllocs)
			}
		}
	}
	if failed {
		return exitRegression
	}
	return exitOK
}

// singleSampleBaseline reports whether no aligned benchmark has at least two
// baseline samples. A single sample has no variance, so every delta would
// have an untestable (NaN) p-value and count as significant: any noise past
// the threshold would fail the gate.
func singleSampleBaseline(rep *bench.Report) bool {
	for _, d := range rep.Deltas {
		if d.NOld >= 2 {
			return false
		}
	}
	return true
}

// writeTable renders the per-benchmark comparison, flagging each row as a
// regression (>), an improvement (<), or noise-level (~).
func writeTable(w io.Writer, rep *bench.Report, threshold, alpha float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tp\tB/op\tallocs/op\t")
	for _, d := range rep.Deltas {
		mark := "~"
		switch {
		case d.Delta > threshold && d.Significant(alpha):
			mark = ">"
		case d.Delta < -threshold && d.Significant(alpha):
			mark = "<"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\t%s\t%s\t%s\t%s\n",
			d.Name, ns(d.OldNs), ns(d.NewNs), 100*d.Delta, pString(d), bytesString(d), allocsString(d), mark)
	}
	tw.Flush()
	for _, name := range rep.OnlyOld {
		fmt.Fprintf(w, "only in old: %s\n", name)
	}
	for _, name := range rep.OnlyNew {
		fmt.Fprintf(w, "only in new: %s\n", name)
	}
}

// ns renders a ns/op mean compactly.
func ns(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.4gms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.4gµs", v/1e3)
	default:
		return fmt.Sprintf("%.4gns", v)
	}
}

// pString renders the p-value column ("-" when untestable).
func pString(d bench.Delta) string {
	if math.IsNaN(d.P) {
		return "-"
	}
	return fmt.Sprintf("%.3f", d.P)
}

// pNote annotates a regression line with its statistical backing.
func pNote(d bench.Delta) string {
	if math.IsNaN(d.P) {
		return " [single sample; rerun bench.sh with COUNT>1 for significance]"
	}
	return fmt.Sprintf(" [p=%.3f, n=%d/%d]", d.P, d.NOld, d.NNew)
}

// allocsString renders the allocs/op transition, or "-" when unrecorded.
func allocsString(d bench.Delta) string {
	if math.IsNaN(d.OldAllocs) || math.IsNaN(d.NewAllocs) {
		return "-"
	}
	if d.OldAllocs == d.NewAllocs {
		return fmt.Sprintf("%.0f", d.NewAllocs)
	}
	return fmt.Sprintf("%.0f->%.0f", d.OldAllocs, d.NewAllocs)
}

// bytesString renders the B/op transition, or "-" when unrecorded.
func bytesString(d bench.Delta) string {
	if math.IsNaN(d.OldBytes) || math.IsNaN(d.NewBytes) {
		return "-"
	}
	if d.OldBytes == d.NewBytes {
		return bytes(d.NewBytes)
	}
	return bytes(d.OldBytes) + "->" + bytes(d.NewBytes)
}

// bytes renders a B/op mean compactly.
func bytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.3gGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.4gMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.4gKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.4gB", v)
	}
}
