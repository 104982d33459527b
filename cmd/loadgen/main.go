// Command loadgen measures the advisor hot path at service speed: it drives
// join-avoidance decisions (or full hamlet.Analyze pipelines) at
// configurable concurrency, duration, and target rate, and records
// per-request latency into log-linear obs histograms. It has two
// transports: in-process (the service floor — decisions straight off the
// statistics registry) and HTTP (-url, the same request stream POSTed to a
// running cmd/advisord), so one harness measures the transport overhead
// against the floor it already established.
//
// Usage:
//
//	loadgen -duration 2s -workers 8                  # Walmart decisions, unthrottled
//	loadgen -dataset all -rate 10000 -duration 10s   # 10k req/s across every mimic
//	loadgen -mode analyze -duration 30s              # full Analyze pipeline per request
//	loadgen -url http://127.0.0.1:8080 -duration 5s  # drive a running advisord
//	loadgen -url ... -batch 100                      # 100 decisions per round trip
//	loadgen -url ... -trace-sample 0.01 -out runs/lg # distributed tracing: inject
//	                                                 # traceparent, keep 1% of traces
//	                                                 # (plus errors/slow) in traces.jsonl
//	loadgen -duration 2s -workers 8 -out runs/lg     # persist run artifacts, including
//	                                                 # histograms.json for `report latency`
//	loadgen -duration 2s -precision 9 -progress      # finer quantile error, live ETA
//
// Each worker records latencies into its own histogram shard (no cross-CPU
// contention on the measurement itself); shards merge at exit into the
// run-level snapshots persisted as histograms.json. Quantiles carry the
// bucket scheme's relative error bound of 2^-precision (0.79% at the
// default 7). `report latency <rundir>` renders them; `report latency base
// new` gates p99 regressions between two runs.
//
// In HTTP mode only successful (2xx) round trips land in the latency
// histograms; non-2xx answers and transport failures are counted
// separately and reported in the summary, the loadgen_summary event, and
// the loadgen.errors_* counters in metrics.json. In-process request errors
// stay fatal — they mean the harness itself is broken.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"hamlet"
	"hamlet/internal/obs"
	"hamlet/internal/pool"
	"hamlet/internal/registry"
	"hamlet/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive the full CLI —
// flags, the load loop, and artifact persistence — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("dataset", "Walmart", "dataset mimic name or \"all\" (requests round-robin across datasets)")
		scale     = fs.Float64("scale", 0.1, "mimic scale in (0,1]")
		seed      = fs.Uint64("seed", 1, "generation seed")
		rule      = fs.String("rule", "TR", "decision rule: TR or ROR")
		mode      = fs.String("mode", "decide", "request body: decide (advisor rules over cached stats) or analyze (full JoinAll-vs-JoinOpt pipeline)")
		method    = fs.String("method", "forward", "feature selection method for -mode analyze")
		url       = fs.String("url", "", "base URL of a running advisord (e.g. http://127.0.0.1:8080); empty = in-process")
		reqBatch  = fs.Int("batch", 1, "decisions per HTTP request in -url mode")
		ready     = fs.Duration("ready", 5*time.Second, "how long to wait for the server's /readyz in -url mode (0 = don't wait)")
		duration  = fs.Duration("duration", 2*time.Second, "how long to drive load")
		workers   = fs.Int("workers", 0, "concurrent request workers (0 = GOMAXPROCS)")
		rate      = fs.Float64("rate", 0, "target total requests/sec (0 = unthrottled)")
		precision = fs.Int("precision", obs.DefaultPrecision, "histogram sub-bucket bits; quantile error ≤ 2^-precision")
		sample    = fs.Float64("trace-sample", 0, "distributed-trace head-sampling probability in [0,1] for -url mode (0 = tracing off)")
		traceCap  = fs.Float64("trace-cap", 100, "max kept traces per second (0 = uncapped)")
		traceSlow = fs.Duration("trace-slow", 0, "always keep traces for requests at or over this latency (0 = off)")
		outDir    = fs.String("out", "", "write run artifacts (manifest, events, metrics, trace, histograms.json) to this directory")
		progress  = fs.Bool("progress", false, "report live throughput/ETA to stderr")
		prof      obs.ProfileFlags
	)
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *duration <= 0 {
		fmt.Fprintln(stderr, "loadgen: -duration must be positive")
		return 2
	}
	if *url != "" && *mode != "decide" {
		fmt.Fprintln(stderr, "loadgen: -url supports only -mode decide (the HTTP service has no analyze endpoint)")
		return 2
	}
	if *reqBatch < 1 {
		fmt.Fprintln(stderr, "loadgen: -batch must be at least 1")
		return 2
	}
	if *sample < 0 || *sample > 1 {
		fmt.Fprintln(stderr, "loadgen: -trace-sample must be in [0,1]")
		return 2
	}
	if (*sample > 0 || *traceSlow > 0) && *url == "" {
		fmt.Fprintln(stderr, "loadgen: tracing (-trace-sample/-trace-slow) requires -url (traces cross the HTTP boundary)")
		return 2
	}

	adv := hamlet.NewAdvisor()
	switch strings.ToUpper(*rule) {
	case "TR":
		adv.Rule = hamlet.TRRule
	case "ROR":
		adv.Rule = hamlet.RORRule
	default:
		fmt.Fprintf(stderr, "loadgen: unknown rule %q (want TR or ROR)\n", *rule)
		return 2
	}
	var sel hamlet.FeatureSelector
	switch *mode {
	case "decide":
	case "analyze":
		switch *method {
		case "forward":
			sel = hamlet.ForwardSelection()
		case "backward":
			sel = hamlet.BackwardSelection()
		case "filter-MI":
			sel = hamlet.MIFilter()
		case "filter-IGR":
			sel = hamlet.IGRFilter()
		default:
			fmt.Fprintf(stderr, "loadgen: unknown method %q\n", *method)
			return 2
		}
	default:
		fmt.Fprintf(stderr, "loadgen: unknown mode %q (want decide or analyze)\n", *mode)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "loadgen: profiling: %v\n", err)
		}
	}()

	runDir, err := obs.OpenRunDir(*outDir, obs.CollectRunInfo("loadgen", fs))
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	root := obs.StartSpan("loadgen")

	// Tracing (HTTP mode): every request gets a trace context and a client
	// span; the tail sampler decides which land in traces.jsonl. The same
	// trace ID reaches the server via traceparent, so a kept trace has both
	// halves — the client span (includes queue + transport) and the server
	// span tree nested inside it.
	var sampler *obs.Sampler
	if *sample > 0 || *traceSlow > 0 {
		sampler = obs.NewSampler(*sample, *traceCap, *traceSlow)
	}
	traces := runDir.Traces()

	nWorkers := pool.Workers(*workers)

	// Warm the transport before the clock starts. In-process runs pay
	// generation and the sufficient-statistics scan here; HTTP runs wait
	// for the server's readiness, pre-marshal one request body per dataset,
	// and send one probe each so the server's cold path (its own registry
	// fill) is setup cost too, not request latency.
	setup := root.Child("setup(transport)")
	names := []string{*name}
	if *name == "all" {
		names = registry.Names()
	}
	var (
		entries   []*registry.Entry
		bodies    [][]byte
		client    *http.Client
		decideURL string
	)
	if *url == "" {
		reg := registry.New()
		entries = make([]*registry.Entry, len(names))
		for i, n := range names {
			if entries[i], err = reg.Get(n, *scale, *seed); err != nil {
				setup.End()
				fmt.Fprintf(stderr, "loadgen: %v\n", err)
				_ = runDir.Close(root, err)
				return 1
			}
		}
	} else {
		base := strings.TrimRight(*url, "/")
		decideURL = base + "/v1/decide"
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        nWorkers + 2,
			MaxIdleConnsPerHost: nWorkers + 2, // every worker keeps its connection
		}}
		if *ready > 0 {
			waitReady(client, base+"/readyz", *ready, stderr)
		}
		bodies = make([][]byte, len(names))
		for i, n := range names {
			qs := make([]server.Query, *reqBatch)
			for j := range qs {
				qs[j] = server.Query{Dataset: n, Scale: *scale, Seed: *seed, Rule: strings.ToUpper(*rule)}
			}
			if bodies[i], err = json.Marshal(server.DecideRequest{V: server.RequestSchemaVersion, Requests: qs}); err != nil {
				setup.End()
				fmt.Fprintf(stderr, "loadgen: %v\n", err)
				_ = runDir.Close(root, err)
				return 1
			}
			status, perr := httpDecide(client, decideURL, "loadgen-warmup-"+n, "", bodies[i])
			if perr != nil {
				// No transport at all is a harness failure, not a measurement.
				setup.End()
				fmt.Fprintf(stderr, "loadgen: warmup probe for %s: %v\n", n, perr)
				_ = runDir.Close(root, perr)
				return 1
			}
			if status < 200 || status >= 300 {
				// A reachable server answering non-2xx is measurable: warn and
				// let the run count the errors (and fail if nothing succeeds).
				fmt.Fprintf(stderr, "loadgen: warmup probe for %s: HTTP %d\n", n, status)
			}
		}
	}
	setup.End()
	var prog *obs.Progress // nil no-ops through every method
	if *progress {
		prog = obs.NewProgress(stderr, "loadgen", time.Second)
		prog.AttachEvents(runDir.Events())
		if *rate > 0 {
			prog.AddTotal(int64(*rate * duration.Seconds()))
		}
	}

	// One histogram shard per (worker, dataset): the measurement itself must
	// not serialize the workers it measures. Shards merge after the run.
	// HTTP error counts shard the same way.
	shards := make([][]*obs.Histogram, nWorkers)
	for w := range shards {
		shards[w] = make([]*obs.Histogram, len(names))
		for d := range shards[w] {
			shards[w][d] = obs.NewHistogram(*precision)
		}
	}
	type errCount struct{ non2xx, transport int64 }
	errShards := make([]errCount, nWorkers)

	// Per-worker pacing interval for a global -rate target; worker start
	// offsets stagger so the aggregate stream is evenly spaced.
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(nWorkers) / *rate * float64(time.Second))
	}

	drive := root.Child(fmt.Sprintf("drive(mode=%s)", *mode))
	started := time.Now()
	deadline := started.Add(*duration)
	perr := pool.Run(nWorkers, nWorkers, func(w int) error {
		// Progress batching: decide-mode requests run in hundreds of
		// nanoseconds, so stepping the shared reporter per request would
		// serialize the workers on its mutex.
		batch := int64(512)
		if *mode == "analyze" {
			batch = 1
		}
		next := started.Add(time.Duration(float64(interval) * float64(w) / float64(nWorkers)))
		var pending int64
		for i := 0; ; i++ {
			now := time.Now()
			if !now.Before(deadline) {
				break
			}
			if interval > 0 {
				if now.Before(next) {
					time.Sleep(next.Sub(now))
				}
				next = next.Add(interval)
				if now.Sub(next) > 64*interval {
					next = now // cap pacing debt after a stall; don't burst unbounded
				}
			}
			d := i % len(names)
			start := time.Now()
			if client != nil {
				id := "loadgen-" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				var tc obs.TraceContext
				var hdr string
				var sp *obs.Span
				if sampler != nil {
					tc = obs.NewTraceContext()
					tc = tc.WithSampled(sampler.Sampled(tc))
					hdr = tc.Traceparent()
					sp = obs.StartSpan("client(decide)")
				}
				// HTTP errors are measurements, not harness failures: count
				// them and keep driving. Only 2xx round trips enter the
				// latency histogram — an error's timing measures the failure
				// path, not the service.
				status, herr := httpDecide(client, decideURL, id, hdr, bodies[d])
				sp.End()
				elapsed := time.Since(start)
				switch {
				case herr != nil:
					errShards[w].transport++
				case status < 200 || status >= 300:
					errShards[w].non2xx++
				default:
					shards[w][d].Observe(elapsed.Nanoseconds())
				}
				isErr := herr != nil || status < 200 || status >= 300
				if sampler.Keep(tc.Sampled(), elapsed, isErr) {
					// Append errors are telemetry loss, not a failed run.
					_ = traces.Append(obs.TraceRecord{
						TraceID:   tc.TraceIDString(),
						SpanID:    tc.SpanIDString(),
						Kind:      obs.TraceKindClient,
						RequestID: id,
						Span:      sp,
					})
				}
			} else {
				e := entries[d]
				var err error
				if *mode == "decide" {
					_, err = adv.DecideFromStats(e.Stats)
				} else {
					_, err = hamlet.Analyze(e.Dataset, sel, adv, *seed)
				}
				shards[w][d].Observe(time.Since(start).Nanoseconds())
				if err != nil {
					return fmt.Errorf("loadgen: %s request on %s: %w", *mode, e.Dataset.Name, err)
				}
			}
			if pending++; pending == batch {
				prog.Step(pending)
				pending = 0
			}
		}
		prog.Step(pending)
		return nil
	})
	elapsed := time.Since(started)
	drive.End()
	prog.Flush()
	if perr != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", perr)
		_ = runDir.Close(root, perr)
		return 1
	}

	// Merge the shards: across workers into per-dataset snapshots (kept
	// only when the run drove more than one dataset), then across datasets
	// into the run-level obs.LatencyHist.
	var total obs.HistogramSnapshot
	hists := make(map[string]obs.HistogramSnapshot)
	for d, n := range names {
		var per obs.HistogramSnapshot
		for w := range shards {
			if err := per.Merge(shards[w][d].Snapshot()); err != nil {
				fmt.Fprintf(stderr, "loadgen: %v\n", err)
				return 1
			}
		}
		if len(names) > 1 {
			hists[obs.LatencyHist+"."+n] = per
		}
		if err := total.Merge(per); err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 1
		}
	}
	var non2xx, transport int64
	for _, ec := range errShards {
		non2xx += ec.non2xx
		transport += ec.transport
	}
	nErrors := non2xx + transport
	if total.Count == 0 {
		// Merge skips empty shards, so adopt the precision explicitly: even a
		// zero-request run writes a well-formed artifact.
		total.Precision = shards[0][0].Snapshot().Precision
	}
	hists[obs.LatencyHist] = total
	drive.Add("requests", total.Count)

	rps := float64(total.Count) / elapsed.Seconds()
	fmt.Fprintf(stdout, "loadgen: mode %s, datasets %s, %d workers, %v", *mode, strings.Join(names, ","), nWorkers, duration.Round(time.Millisecond))
	if *rate > 0 {
		fmt.Fprintf(stdout, ", target %.0f req/s", *rate)
	}
	if *url != "" {
		fmt.Fprintf(stdout, ", url %s, batch %d", *url, *reqBatch)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "requests: %d in %v (%.1f req/s)\n", total.Count, elapsed.Round(time.Millisecond), rps)
	if *url != "" {
		fmt.Fprintf(stdout, "errors:   %d (%d non-2xx, %d transport)\n", nErrors, non2xx, transport)
	}
	if sampler != nil {
		fmt.Fprintf(stdout, "traces:   %d kept (sample %g, cap %g/s, slow %v)\n",
			traces.Len(), *sample, *traceCap, *traceSlow)
	}
	fmt.Fprintf(stdout, "latency:  p50 %v  p90 %v  p99 %v  p99.9 %v  (min %v  mean %v  max %v)\n",
		ns(total.Quantile(0.50)), ns(total.Quantile(0.90)), ns(total.Quantile(0.99)), ns(total.Quantile(0.999)),
		ns(total.Min), ns(int64(total.Mean())), ns(total.Max))
	fmt.Fprintf(stdout, "precision: %d sub-bucket bits (quantile error ≤ %.2f%%)\n", total.Precision, 100*total.MaxQuantileError())

	attrs := []slog.Attr{
		slog.String("mode", *mode),
		slog.Int("workers", nWorkers),
		slog.Int64("requests", total.Count),
		slog.Float64("req_per_sec", rps),
		slog.Int64("p50_ns", total.Quantile(0.50)),
		slog.Int64("p99_ns", total.Quantile(0.99)),
		slog.Int64("p999_ns", total.Quantile(0.999)),
	}
	if *url != "" {
		attrs = append(attrs,
			slog.String("url", *url),
			slog.Int("batch", *reqBatch),
			slog.Int64("errors_non2xx", non2xx),
			slog.Int64("errors_transport", transport),
		)
		obs.C("loadgen.errors_non2xx").Add(non2xx)
		obs.C("loadgen.errors_transport").Add(transport)
	}
	if sampler != nil {
		attrs = append(attrs, slog.Int64("traces_kept", traces.Len()))
		obs.C("loadgen.traces_kept").Add(traces.Len())
	}
	runDir.Events().Emit("loadgen_summary", attrs...)
	if err := runDir.WriteHistograms(hists); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	root.End()
	if total.Count == 0 && nErrors > 0 {
		err := fmt.Errorf("all %d requests failed (%d non-2xx, %d transport)", nErrors, non2xx, transport)
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		_ = runDir.Close(root, err)
		return 1
	}
	if err := runDir.Close(root, nil); err != nil {
		fmt.Fprintf(stderr, "loadgen: run artifacts: %v\n", err)
		return 1
	}
	return 0
}

// ns renders a nanosecond latency as a duration string.
func ns(v int64) time.Duration { return time.Duration(v) }

// httpDecide POSTs one pre-marshaled decide request and fully drains the
// response body so the connection returns to the client's pool. A non-nil
// error is a transport failure; otherwise the status code is the verdict.
// The id travels as X-Request-ID, so a slow-request exemplar or request-log
// line on the server names the exact loadgen worker and iteration that sent
// it (and the server skips minting its own). A non-empty traceparent rides
// along, making the server's span tree part of this request's trace.
func httpDecide(client *http.Client, url, id, traceparent string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, id)
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// waitReady polls the server's readiness endpoint until it answers 200 or
// the wait elapses. A timeout only warns: the run proceeds and measures
// whatever the server does, which is the honest answer for a server that
// never becomes ready.
func waitReady(client *http.Client, url string, wait time.Duration, stderr io.Writer) {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if !time.Now().Before(deadline) {
			fmt.Fprintf(stderr, "loadgen: %s not ready after %v; proceeding anyway\n", url, wait)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
