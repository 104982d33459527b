// Command hamlet is the join-avoidance advisor CLI: it applies the paper's
// TR and ROR decision rules to a normalized dataset (one of the built-in
// dataset mimics) and reports, per attribute table, whether the join is
// predicted safe to avoid — optionally running the end-to-end JoinAll vs
// JoinOpt feature selection comparison.
//
// Usage:
//
//	hamlet -dataset Walmart                 # advisor decisions only
//	hamlet -dataset all                     # decisions for every dataset
//	hamlet -dataset Yelp -analyze           # plus end-to-end comparison
//	hamlet -dataset Flights -tolerance 0.01 # relaxed thresholds (τ=10, ρ=4.2)
//	hamlet -dataset Walmart -rule ROR       # use the ROR rule instead of TR
//	hamlet -schema mydata/spec.json         # run on your own CSVs
//	hamlet -dataset Walmart -analyze -trace # span tree: join vs select vs train time
//	hamlet -analyze -cpuprofile cpu.out     # CPU profile of the run
//	hamlet -analyze -http :6060             # live pprof + /metrics
//	hamlet -analyze -out runs/walmart       # persist run artifacts (manifest,
//	                                        # events.jsonl, metrics, trace)
//
// A schema spec is a JSON file declaring the entity CSV, target column, and
// KFK references (see hamlet.SchemaSpec for the format).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"text/tabwriter"

	"hamlet"
	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/pool"
)

func main() {
	var (
		name      = flag.String("dataset", "all", "dataset mimic name (Walmart, Expedia, Flights, Yelp, MovieLens1M, LastFM, BookCrossing) or \"all\"")
		schema    = flag.String("schema", "", "JSON schema spec over your own CSV files (overrides -dataset)")
		scale     = flag.Float64("scale", 0.1, "mimic scale in (0,1]; 1 reproduces the paper's row counts")
		seed      = flag.Uint64("seed", 1, "generation seed")
		rule      = flag.String("rule", "TR", "decision rule: TR or ROR")
		tolerance = flag.Float64("tolerance", 0.001, "error tolerance: 0.001 (τ=20, ρ=2.5) or 0.01 (τ=10, ρ=4.2)")
		analyze   = flag.Bool("analyze", false, "also run end-to-end JoinAll vs JoinOpt feature selection")
		method    = flag.String("method", "forward", "feature selection method for -analyze: forward, backward, filter-MI, filter-IGR")
		trace     = flag.Bool("trace", false, "with -analyze, print the span tree (join vs selection vs training time) to stderr")
		outDir    = flag.String("out", "", "write run artifacts (manifest.json, events.jsonl, metrics.json, trace.json) to this directory")
		workers   = flag.Int("workers", 0, "datasets analyzed concurrently with -dataset all (0 = GOMAXPROCS); output order is unchanged")
		prof      obs.ProfileFlags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "hamlet: profiling: %v\n", err)
		}
	}()

	runDir, err := obs.OpenRunDir(*outDir, obs.CollectRunInfo("hamlet", flag.CommandLine))
	if err != nil {
		fatal("%v", err)
	}
	var root *obs.Span
	if runDir != nil {
		root = obs.StartSpan("hamlet")
	}

	adv := hamlet.NewAdvisor()
	if adv.Rule, err = core.ParseRule(*rule); err != nil {
		fatal("%v", err)
	}
	switch *tolerance {
	case 0.001:
		adv.Thresholds = hamlet.DefaultThresholds
	case 0.01:
		adv.Thresholds = hamlet.RelaxedThresholds
	default:
		fatal("tolerance must be 0.001 or 0.01 (tune others via hamlet.TuneThresholds)")
	}

	var datasets []*hamlet.Dataset
	if *schema != "" {
		ds, err := hamlet.LoadDataset(*schema)
		if err != nil {
			fatal("load %s: %v", *schema, err)
		}
		datasets = append(datasets, ds)
	} else {
		var specs []hamlet.MimicSpec
		if *name == "all" {
			specs = hamlet.Mimics()
		} else {
			spec, err := hamlet.MimicByName(*name)
			if err != nil {
				fatal("%v", err)
			}
			specs = []hamlet.MimicSpec{spec}
		}
		for _, spec := range specs {
			ds, err := spec.Generate(*scale, *seed)
			if err != nil {
				fatal("generate %s: %v", spec.Name, err)
			}
			datasets = append(datasets, ds)
		}
	}

	// Datasets are independent, so -dataset all fans out over a bounded
	// worker pool. Each worker renders into its own buffers; stdout/stderr
	// are then flushed in dataset order, so the report reads identically at
	// any worker count (events.jsonl interleaves by completion time — the
	// lines are self-describing and explicitly unordered across datasets).
	outBufs := make([]bytes.Buffer, len(datasets))
	errBufs := make([]bytes.Buffer, len(datasets))
	spans := make([]*obs.Span, len(datasets))
	perr := pool.Run(len(datasets), *workers, func(i int) error {
		ds := datasets[i]
		var dsSpan *obs.Span
		if root != nil {
			dsSpan = obs.StartSpan("dataset(" + ds.Name + ")")
			spans[i] = dsSpan
		}
		err := reportDataset(&outBufs[i], &errBufs[i], ds, dsSpan, adv, runDir,
			*analyze, *method, *trace, *seed)
		dsSpan.End()
		return err
	})
	root.AdoptAll(spans)
	for i := range datasets {
		os.Stdout.Write(outBufs[i].Bytes())
		os.Stderr.Write(errBufs[i].Bytes())
	}
	if perr != nil {
		fatal("%v", perr)
	}
	root.End()
	if err := runDir.Close(root, nil); err != nil {
		fatal("run artifacts: %v", err)
	}
}

// reportDataset runs the advisor (and optionally the end-to-end analysis)
// for one dataset, rendering the report into stdout/stderr buffers so
// parallel workers never interleave their output.
func reportDataset(stdout, stderr io.Writer, ds *hamlet.Dataset, dsSpan *obs.Span,
	adv *hamlet.Advisor, runDir *obs.RunDir, analyze bool, method string, trace bool, seed uint64) error {
	decisions, err := adv.Decide(ds)
	if err != nil {
		return fmt.Errorf("decide %s: %w", ds.Name, err)
	}
	fmt.Fprintf(stdout, "dataset %s: n_S=%d rows, %d attribute tables (rule=%s, τ=%.3g, ρ=%.3g)\n",
		ds.Name, ds.NumRows(), len(ds.Attrs), adv.Rule, adv.Thresholds.Tau, adv.Thresholds.Rho)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  attr table\tFK\tTR\tROR\tverdict\treason")
	for _, dec := range decisions {
		verdict := "KEEP (join)"
		if dec.Considered && dec.Avoid {
			verdict = "AVOID join"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.2f\t%.2f\t%s\t%s\n", dec.Attr, dec.FK, dec.TR, dec.ROR, verdict, dec.Reason)
		runDir.Events().Emit("decision",
			slog.String("dataset", ds.Name),
			slog.String("attr", dec.Attr),
			slog.String("fk", dec.FK),
			slog.Float64("tr", dec.TR),
			slog.Float64("ror", dec.ROR),
			slog.Bool("avoid", dec.Considered && dec.Avoid),
			slog.String("reason", dec.Reason),
		)
	}
	tw.Flush()
	if analyze {
		sel, err := selector(method)
		if err != nil {
			return err
		}
		rep, err := hamlet.Analyze(ds, sel, adv, seed)
		if err != nil {
			return fmt.Errorf("analyze %s: %w", ds.Name, err)
		}
		dsSpan.Adopt(rep.Trace)
		runDir.Events().Emit("analyze",
			slog.String("dataset", ds.Name),
			slog.String("method", method),
			slog.Float64("joinall_test_error", rep.JoinAll.TestError),
			slog.Float64("joinopt_test_error", rep.JoinOpt.TestError),
			slog.Int("joinall_evaluations", rep.JoinAll.Evaluations),
			slog.Int("joinopt_evaluations", rep.JoinOpt.Evaluations),
			slog.Float64("speedup", rep.Speedup),
			slog.String("speedup_basis", rep.SpeedupBasis),
		)
		fmt.Fprintf(stdout, "  end-to-end (%s, metric %s):\n", method, rep.Metric)
		fmt.Fprintf(stdout, "    JoinAll: %d features in, test error %.4f, selection %v (%d evals)\n",
			rep.JoinAll.InputFeatures, rep.JoinAll.TestError, rep.JoinAll.Elapsed.Round(1e6), rep.JoinAll.Evaluations)
		fmt.Fprintf(stdout, "    JoinOpt: %d features in, test error %.4f, selection %v (%d evals)\n",
			rep.JoinOpt.InputFeatures, rep.JoinOpt.TestError, rep.JoinOpt.Elapsed.Round(1e6), rep.JoinOpt.Evaluations)
		fmt.Fprintf(stdout, "    speedup: %.1fx (%s basis); selected (JoinOpt): %s\n",
			rep.Speedup, rep.SpeedupBasis, strings.Join(rep.JoinOpt.Selected, " "))
		if trace {
			if err := rep.Trace.WriteText(stderr); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
	}
	fmt.Fprintln(stdout)
	return nil
}

func selector(name string) (hamlet.FeatureSelector, error) {
	switch name {
	case "forward":
		return hamlet.ForwardSelection(), nil
	case "backward":
		return hamlet.BackwardSelection(), nil
	case "filter-MI":
		return hamlet.MIFilter(), nil
	case "filter-IGR":
		return hamlet.IGRFilter(), nil
	}
	return nil, fmt.Errorf("unknown method %q", name)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hamlet: "+format+"\n", args...)
	os.Exit(1)
}
