// Package obs is Hamlet-Go's stdlib-only observability layer: a
// hierarchical span tracer, a process-wide metrics registry rendered on
// /metrics and persisted as metrics.json, a progress/ETA reporter for long
// Monte Carlo runs, and runtime profiling hooks shared by the CLIs.
//
// The paper's headline claim is a runtime claim — avoiding joins yields
// large feature-selection speedups — so the repro must be able to say where
// time actually goes: join materialization vs. selection sweeps vs. model
// training. Every layer of the pipeline (relational, dataset, fs, ml,
// biasvar, experiments) reports into this package.
//
// Design rules:
//
//   - Zero cost when disabled. All *Span methods are nil-receiver no-ops, so
//     un-traced code paths pay one predictable nil check. Metric updates are
//     single atomic ops gated on a global enable flag; SetEnabled(false)
//     turns them into a load-and-return. Both paths are benchmarked (see
//     bench_test.go here and BenchmarkForwardSelectionObsOff at the repo
//     root).
//   - Stdlib only: time, sync/atomic, log/slog, net/http/pprof. No
//     external dependencies, matching the rest of the repository.
//   - Metrics are process-wide (Default registry) because the hot paths
//     (relational.Join, fs evaluators, nb counting) have no natural place to
//     thread a handle through; spans are explicit values threaded through
//     APIs because their nesting is the information.
package obs

import "sync/atomic"

// enabled gates all metric updates. Spans are gated by nil-ness instead.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the metrics layer on or off process-wide. Disabled
// metrics cost one atomic load per update site. Spans are unaffected: a nil
// span is always free, a live span always records.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether the metrics layer is recording.
func Enabled() bool { return enabled.Load() }
