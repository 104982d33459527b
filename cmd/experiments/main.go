// Command experiments regenerates the paper's evaluation artifacts: every
// table and figure (3, 4, 6, 7, 8A/B/C, 9, 10, 11, 12, 13, and the Appendix
// E TAN study) from the simulation framework and the dataset mimics.
//
// Usage:
//
//	experiments                    # run everything at the full budget
//	experiments -id fig7           # one experiment
//	experiments -id fig3,fig4      # a comma-separated list
//	experiments -quick             # the fast budget (CI-sized)
//	experiments -workers 8         # parallel Monte Carlo engine (same results)
//	experiments -scale 0.05        # override the mimic scale
//	experiments -csv out/          # also write each table as CSV
//
// Observability (see internal/obs):
//
//	experiments -id fig3 -quick -progress   # progress/ETA lines on stderr
//	experiments -id fig7 -trace             # span tree with per-stage timings
//	experiments -cpuprofile cpu.out -memprofile mem.out
//	experiments -http :6060                 # live pprof + /metrics
//	experiments -id fig3 -out runs/fig3     # persist run artifacts, including
//	                                        # per-figure results.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hamlet/internal/experiments"
	"hamlet/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.String("id", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+"), a comma-separated list, or \"all\"")
		quick    = flag.Bool("quick", false, "use the fast budget instead of the full one")
		scale    = flag.Float64("scale", 0, "override the mimic scale (0 keeps the budget default)")
		worlds   = flag.Int("worlds", 0, "override Monte Carlo world count (0 keeps default)")
		l        = flag.Int("L", 0, "override training sets per world (0 keeps default)")
		seed     = flag.Uint64("seed", 0, "override the seed (0 keeps default)")
		workers  = flag.Int("workers", 0, "worker goroutines for the Monte Carlo fan-out (0 = GOMAXPROCS); results are identical at any count")
		csvDir   = flag.String("csv", "", "directory to write per-table CSV files (optional)")
		progress = flag.Bool("progress", false, "print periodic progress/ETA lines to stderr")
		trace    = flag.Bool("trace", false, "print a span tree with per-stage timings and counters after each experiment")
		outDir   = flag.String("out", "", "write run artifacts (manifest.json, events.jsonl, metrics.json, trace.json, results.jsonl) to this directory")
		prof     obs.ProfileFlags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	ids, err := parseIDs(*id, experiments.IDs())
	if err != nil {
		return err
	}

	budget := experiments.Full
	if *quick {
		budget = experiments.Quick
	}
	if *scale != 0 {
		budget.MimicScale = *scale
	}
	if *worlds != 0 {
		budget.Worlds = *worlds
	}
	if *l != 0 {
		budget.L = *l
	}
	if *seed != 0 {
		budget.Seed = *seed
	}
	budget.Workers = *workers

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: profiling: %v\n", err)
		}
	}()

	runDir, err := obs.OpenRunDir(*outDir, obs.CollectRunInfo("experiments", flag.CommandLine))
	if err != nil {
		return err
	}
	var runRoot *obs.Span
	if runDir != nil {
		runRoot = obs.StartSpan("experiments")
	}

	runErr := func() error {
		for _, eid := range ids {
			b := budget
			if *progress || runDir != nil {
				w := io.Writer(io.Discard)
				if *progress {
					w = os.Stderr
				}
				b.Progress = obs.NewProgress(w, eid, 2*time.Second)
				b.Progress.AttachEvents(runDir.Events())
			}
			var root *obs.Span
			if *trace || runDir != nil {
				root = obs.StartSpan(eid)
				b.Trace = root
			}
			start := time.Now()
			res, err := experiments.Run(eid, b)
			root.End()
			runRoot.Adopt(root)
			b.Progress.Flush()
			if err != nil {
				return fmt.Errorf("%s: %w", eid, err)
			}
			elapsed := time.Since(start)
			runDir.Events().Emit("experiment",
				slog.String("id", eid),
				slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
				slog.Int("tables", len(res.Tables)),
			)
			if err := appendResults(runDir, res); err != nil {
				return fmt.Errorf("results %s: %w", eid, err)
			}
			fmt.Printf("## %s (%v)\n\n", eid, elapsed.Round(time.Millisecond))
			if err := res.WriteText(os.Stdout); err != nil {
				return fmt.Errorf("render %s: %w", eid, err)
			}
			if *trace {
				if err := root.WriteText(os.Stderr); err != nil {
					return fmt.Errorf("trace %s: %w", eid, err)
				}
			}
			if *csvDir != "" {
				if err := writeCSVs(*csvDir, res); err != nil {
					return fmt.Errorf("csv %s: %w", eid, err)
				}
			}
		}
		return nil
	}()
	runRoot.End()
	if cerr := runDir.Close(runRoot, runErr); cerr != nil && runErr == nil {
		runErr = cerr
	}
	return runErr
}

// appendResults streams every table row of one experiment into the run's
// results.jsonl: one self-describing obs.ResultRow line per row (schema v1,
// header order preserved via Columns), so `report tables` can rebuild the
// rendered tables without re-running the Monte Carlo sweep.
func appendResults(runDir *obs.RunDir, res *experiments.Result) error {
	if runDir == nil {
		return nil
	}
	for _, tab := range res.Tables {
		for _, row := range tab.Rows {
			cells := make(map[string]string, len(tab.Columns))
			for i, col := range tab.Columns {
				cells[col] = row[i]
			}
			line := obs.ResultRow{
				V:          obs.SchemaVersion,
				Experiment: res.ID,
				Table:      tab.Title,
				Columns:    tab.Columns,
				Cells:      cells,
			}
			if err := runDir.AppendResult(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseIDs expands and validates the -id flag against the registry before
// anything runs: "all" means every registered experiment, otherwise a
// comma-separated list of known ids (duplicates preserved, blanks ignored).
func parseIDs(arg string, valid []string) ([]string, error) {
	if arg == "all" {
		return valid, nil
	}
	known := make(map[string]bool, len(valid))
	for _, id := range valid {
		known[id] = true
	}
	var ids []string
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, or \"all\")", id, strings.Join(valid, ", "))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q (valid: %s, or \"all\")", arg, strings.Join(valid, ", "))
	}
	return ids, nil
}

func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tab := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", res.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tab.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
