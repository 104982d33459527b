// Command advisord serves the paper's join-avoidance advisor as a
// long-lived HTTP daemon: the transport half of the decision service whose
// in-process floor cmd/loadgen measured (~2.2M decisions/s, p99 ≈ 1.2µs).
// Decisions are answered from internal/registry's cached sufficient
// statistics; a cold (dataset, scale, seed) tuple pays one generation plus
// statistics scan, guarded by the registry's once-cells, and is pure
// arithmetic afterwards.
//
// Usage:
//
//	advisord                                  # serve on 127.0.0.1:8080, Walmart preloaded
//	advisord -addr :9000 -datasets all        # preload every mimic
//	advisord -addr 127.0.0.1:0 -addrfile a    # ephemeral port, resolved address in a
//	advisord -out runs/adv                    # run artifacts: request-log events,
//	                                          # metrics, histograms.json at shutdown
//	advisord -trace-sample 0.01 -out runs/adv # distributed tracing: adopt/mint
//	                                          # traceparent, tail-sample traces
//	                                          # (errors + -slow always kept) into
//	                                          # traces.jsonl
//	advisord -slo-availability 0.999 \
//	         -slo-latency-objective 1ms       # error budget spent since start
//	                                          # on /metrics
//
// Endpoints (see internal/server for the schema):
//
//	POST /v1/decide     1..N decisions in one round trip
//	GET  /v1/datasets   the catalog + what is loaded
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 until preload finishes / while draining)
//	GET  /metrics       Prometheus text exposition, cumulative since start:
//	                    counters, latency buckets, SLO budget spent, and the
//	                    metrics registry (`report watch` derives per-poll
//	                    rate, p50/p99 and burn from consecutive scrapes)
//	GET  /debug/slow    recent slow-request exemplars (requests over -slow)
//	GET  /debug/pprof/  runtime profiling
//
// Shutdown is graceful: SIGINT/SIGTERM stops the listener, drops readiness,
// lets in-flight requests finish within -drain, then flushes the latency
// histograms to histograms.json so `report latency` reads a server run
// exactly like a loadgen run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
	"hamlet/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive the full daemon —
// flags, preload, serving, signal-driven drain, and artifact persistence —
// in-process (the test sends the real SIGTERM).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile  = fs.String("addrfile", "", "write the resolved listen address to this file once serving (scripts wait on it)")
		datasets  = fs.String("datasets", "Walmart", "comma-separated mimic names to preload before reporting ready, \"all\", or \"\" for none")
		scale     = fs.Float64("scale", 0.1, "default mimic scale for queries that omit one")
		seed      = fs.Uint64("seed", 1, "default generation seed for queries that omit one")
		rule      = fs.String("rule", "TR", "default decision rule for queries that omit one: TR or ROR")
		precision = fs.Int("precision", obs.DefaultPrecision, "latency histogram sub-bucket bits; quantile error ≤ 2^-precision")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight requests")
		outDir    = fs.String("out", "", "write run artifacts (manifest, request-log events, metrics, trace, histograms.json) to this directory")
		slow      = fs.Duration("slow", 10*time.Millisecond, "slow-request threshold: log + retain exemplars on /debug/slow (0 disables)")
		sample    = fs.Float64("trace-sample", 0, "distributed-trace head-sampling probability in [0,1] for requests arriving without a traceparent (0 = tracing off)")
		traceCap  = fs.Float64("trace-cap", 100, "max kept traces per second (0 = uncapped); errors and -slow requests are always kept, within the cap")
		sloAvail  = fs.Float64("slo-availability", 0, "availability SLO target in (0,1), e.g. 0.999; exposes the target and the error budget spent since start on /metrics (0 disables)")
		sloLatObj = fs.Duration("slo-latency-objective", 0, "latency SLO objective, e.g. 1ms; exposes it and the latency error budget spent since start on /metrics (0 disables)")
		sloLatTgt = fs.Float64("slo-latency-target", 0.99, "fraction of requests required within -slo-latency-objective")
		prof      obs.ProfileFlags
	)
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defRule, err := core.ParseRule(*rule)
	if err != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		return 2
	}
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintln(stderr, "advisord: -scale must be in (0, 1]")
		return 2
	}
	if *drain <= 0 {
		fmt.Fprintln(stderr, "advisord: -drain must be positive")
		return 2
	}
	if *slow < 0 {
		fmt.Fprintln(stderr, "advisord: -slow must be non-negative (0 disables slow-request capture)")
		return 2
	}
	if *precision < 0 || *precision > obs.MaxPrecision {
		fmt.Fprintf(stderr, "advisord: -precision must be in [0, %d]\n", obs.MaxPrecision)
		return 2
	}
	if *sample < 0 || *sample > 1 {
		fmt.Fprintln(stderr, "advisord: -trace-sample must be in [0,1]")
		return 2
	}
	if *sloAvail < 0 || *sloAvail >= 1 {
		fmt.Fprintln(stderr, "advisord: -slo-availability must be in [0, 1), e.g. 0.999 (0 disables)")
		return 2
	}
	if *sloLatObj < 0 {
		fmt.Fprintln(stderr, "advisord: -slo-latency-objective must be non-negative (0 disables)")
		return 2
	}
	if *sloLatTgt <= 0 || *sloLatTgt >= 1 {
		fmt.Fprintln(stderr, "advisord: -slo-latency-target must be in (0, 1)")
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "advisord: profiling: %v\n", err)
		}
	}()

	runDir, err := obs.OpenRunDir(*outDir, obs.CollectRunInfo("advisord", fs))
	if err != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		return 1
	}
	root := obs.StartSpan("advisord")

	cfg := server.Config{
		Scale:               *scale,
		Seed:                *seed,
		Rule:                defRule,
		Precision:           *precision,
		Events:              runDir.Events(),
		Slow:                *slow,
		SlowLog:             stderr,
		SLOAvailability:     *sloAvail,
		SLOLatencyObjective: *sloLatObj,
		SLOLatencyTarget:    *sloLatTgt,
	}
	// Tracing is an explicit opt-in via -trace-sample: a sampler built from
	// the default flags alone would record spans for every request just to
	// keep slow ones — fine, but not behind the operator's back. The -slow
	// threshold doubles as the tail sampler's always-keep rule.
	if *sample > 0 {
		cfg.Sampler = obs.NewSampler(*sample, *traceCap, *slow)
		cfg.Traces = runDir.Traces()
	}
	srv := server.New(cfg)

	// Preload before listening: the addrfile appearing means the server is
	// both reachable and ready, so scripts need only one wait.
	setup := root.Child("setup(preload)")
	var names []string
	switch *datasets {
	case "":
	case "all":
		names = registry.Names()
	default:
		names = strings.Split(*datasets, ",")
	}
	if err := srv.Preload(names...); err != nil {
		setup.End()
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		_ = runDir.Close(root, err)
		return 1
	}
	setup.End()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		_ = runDir.Close(root, err)
		return 1
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "advisord: %v\n", err)
			_ = runDir.Close(root, err)
			return 1
		}
		// The addrfile means "reachable": remove it when this process stops
		// serving, so a waiting script never reads a dead server's address.
		defer os.Remove(*addrFile)
	}
	fmt.Fprintf(stdout, "advisord: listening on %s (datasets %s, scale %g, seed %d, rule %s)\n",
		resolved, *datasets, *scale, *seed, strings.ToUpper(*rule))
	runDir.Events().Emit("listening", slog.String("addr", resolved))

	// Signal-driven drain: first SIGINT/SIGTERM starts the graceful
	// shutdown; Serve returns once the listener closes, and the drain
	// error (nil unless in-flight requests outlived -drain) arrives on
	// shutdownErr.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	shutdownErr := make(chan error, 1)
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "advisord: %v: draining (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	serve := root.Child("serve")
	serveErr := srv.Serve(ln)
	serve.End()
	signal.Stop(sigs)
	close(sigs)
	if serveErr != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", serveErr)
		_ = runDir.Close(root, serveErr)
		return 1
	}
	drainErr := <-shutdownErr

	reqs, errs := srv.Stats()
	serve.Add("requests", reqs)
	fmt.Fprintf(stdout, "advisord: served %d requests (%d errors)\n", reqs, errs)
	if cfg.Sampler != nil {
		fmt.Fprintf(stdout, "traces:   %d kept (sample %g, cap %g/s, slow %v)\n",
			cfg.Traces.Len(), *sample, *traceCap, *slow)
	}
	hists := srv.Histograms()
	if h := hists[obs.LatencyHist]; h.Count > 0 {
		fmt.Fprintf(stdout, "latency:  p50 %v  p90 %v  p99 %v  p99.9 %v  (min %v  max %v)\n",
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.90)),
			time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(0.999)),
			time.Duration(h.Min), time.Duration(h.Max))
	}
	sumAttrs := []slog.Attr{
		slog.Int64("requests", reqs),
		slog.Int64("errors", errs),
		slog.Int64("p50_ns", hists[obs.LatencyHist].Quantile(0.50)),
		slog.Int64("p99_ns", hists[obs.LatencyHist].Quantile(0.99)),
	}
	if cfg.Sampler != nil {
		sumAttrs = append(sumAttrs, slog.Int64("traces_kept", cfg.Traces.Len()))
	}
	runDir.Events().Emit("advisord_summary", sumAttrs...)
	if err := runDir.WriteHistograms(hists); err != nil {
		fmt.Fprintf(stderr, "advisord: %v\n", err)
		return 1
	}
	root.End()
	if drainErr != nil {
		fmt.Fprintf(stderr, "advisord: drain: %v (in-flight requests outlived the %v deadline)\n", drainErr, *drain)
		_ = runDir.Close(root, drainErr)
		return 1
	}
	if err := runDir.Close(root, nil); err != nil {
		fmt.Fprintf(stderr, "advisord: run artifacts: %v\n", err)
		return 1
	}
	return 0
}
