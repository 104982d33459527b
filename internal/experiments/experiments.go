// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.1, §5, and the appendix): one runner per artifact, each
// returning the same rows/series the paper plots. Runners are deterministic
// in their seed and take a Budget so tests, benches, and the full CLI run
// can trade Monte Carlo depth for time.
//
// Absolute numbers differ from the paper (Hamlet-Go runs on synthetic
// mimics, not the authors' original data and hardware); the targets are the
// shapes: who wins, where errors blow up, where crossovers fall, and which
// joins the rules avoid. EXPERIMENTS.md records paper-vs-measured for every
// artifact.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"hamlet/internal/obs"
)

// Budget controls experiment sizes.
type Budget struct {
	// Worlds is the number of world realizations per simulation point
	// (the paper uses 100).
	Worlds int
	// L is the number of training sets per world (the paper uses 100).
	L int
	// NTest is the simulation test-set size.
	NTest int
	// MimicScale scales the real-dataset mimics (1 = the paper's sizes).
	MimicScale float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the Monte Carlo worker pool of the simulation-backed
	// runners (biasvar fan-out over worlds and training sets); <= 0 means
	// GOMAXPROCS. Results are identical at every worker count — the flag
	// trades wall time only (the -workers flag of cmd/experiments).
	Workers int
	// Progress, when non-nil, receives progress/ETA updates as the runner's
	// Monte Carlo loops execute (the -progress flag of cmd/experiments).
	// Nil disables reporting; it does not affect results.
	Progress *obs.Progress
	// Trace, when non-nil, is the parent span under which the runner
	// records per-stage child spans (the -trace flag of cmd/experiments).
	// Nil disables tracing; it does not affect results.
	Trace *obs.Span
}

// Quick is the test/bench budget: small but large enough that every trend
// the tests assert is visible.
var Quick = Budget{Worlds: 3, L: 8, NTest: 300, MimicScale: 0.02, Seed: 1}

// Full is the cmd-line default: deep enough for smooth curves on one core
// in minutes.
var Full = Budget{Worlds: 10, L: 24, NTest: 1000, MimicScale: 0.1, Seed: 1}

// Validate checks the budget.
func (b Budget) Validate() error {
	if b.Worlds < 1 || b.L < 2 || b.NTest < 10 {
		return fmt.Errorf("experiments: budget too small: %+v", b)
	}
	if b.MimicScale <= 0 || b.MimicScale > 1 {
		return fmt.Errorf("experiments: mimic scale %v outside (0,1]", b.MimicScale)
	}
	return nil
}

// Table is a rendered experiment artifact: a titled grid of cells.
type Table struct {
	// Title identifies the artifact, e.g. "Figure 3(A1): test error vs n_S".
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the cells, one row per slice.
	Rows [][]string
}

// Add appends a row; the cell count must match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row of %d cells in table %q with %d columns", len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f formats a float for table cells.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// d formats an int for table cells.
func d(v int) string { return fmt.Sprintf("%d", v) }

// Result is a named collection of tables produced by one runner.
type Result struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Tables are the artifact's tables in presentation order.
	Tables []*Table
}

// WriteText renders every table.
func (r *Result) WriteText(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
