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
//   - Zero cost when off. All *Span, *RunDir and *EventLog methods are
//     nil-receiver no-ops, so an un-traced run (nil span) without -out (nil
//     run dir) pays one predictable nil check per call site. Metrics are
//     always on: each update is a few atomic ops with no allocation (see
//     bench_test.go).
//   - Stdlib only: time, sync/atomic, log/slog, net/http/pprof. No
//     external dependencies, matching the rest of the repository.
//   - Metrics are process-wide (Default registry) because the hot paths
//     (relational.Join, fs evaluators, nb counting) have no natural place to
//     thread a handle through; spans are explicit values threaded through
//     APIs because their nesting is the information.
package obs
