#!/bin/sh
# verify.sh — the tier-1 gate, runnable locally or in CI.
#
#   scripts/verify.sh           # full gate (includes go test -race)
#   scripts/verify.sh -short    # fast gate: go test -short, no -race leg
#
# Steps, in order (first failure stops the run):
#   1. gofmt -l must report nothing
#   2. go build ./...
#   3. go vet ./...
#   4. inliner guard: `go build -gcflags=-m ./internal/stats` must report
#      that (*RNG).Uint64, its PCG step (*pcg).Uint64,
#      (*Categorical).SampleWord and Coin.Flip can inline. The Monte Carlo
#      sampling kernel (synth's World.draw) takes every word through them,
#      and a single extra node in that code silently puts a function call
#      back on every word.
#   5. go test ./...            (-short mode: go test -short ./...)
#   6. go test -race ./...      (skipped in -short mode; CI runs the full
#      gate on one matrix leg so the race leg stays the long pole while
#      the other legs finish fast)
#   7. benchmark module: `go vet ./...` and `go test ./...` inside
#      benchmark/, which is its own Go module (replace hamlet => ../), so
#      the root ./... never compiles it; its tests run the toy workloads
#      and check testdata/analyze_seed1.golden.json, catching a change to
#      the library API or outputs that would break the benchmark
#   8. benchdiff smoke test against the committed fixture snapshots: a
#      clean comparison must exit 0, the injected >10% time regression must
#      exit 1, and the injected memory-only regression (B/op + allocs/op
#      moved, ns/op flat) must also exit 1, so both halves of the perf gate
#      are themselves gated; a single-sample baseline must exit 3
#      (vacuous), since no delta against it can be t-tested; and an
#      out-of-range gate parameter (-alpha 0) must exit 2 (usage).
#   9. report smoke test against the committed run-dir fixtures: tables
#      and the trace.json profile must render, the identical-run diff
#      must exit 0, and the seeded-drift fixture must exit 1, so the
#      accuracy gate itself is gated the same way.
#  10. loadgen smoke test: a short in-process load run must produce a run
#      dir whose histograms.json `report latency` renders with exit 0; the
#      committed seeded-regression fixture must make the latency gate exit
#      1, and the identical-run latency diff must exit 0.
#  11. advisord smoke test: the daemon must come up on an ephemeral port
#      (with tracing and SLO flags on), answer a loadgen -url round trip,
#      serve a /metrics exposition with a nonzero request counter, an SLO
#      burn gauge and the metrics registry's hamlet_* series that `report
#      watch` parses, drain cleanly on SIGTERM
#      (exit 0), remove its addrfile, and flush a histograms.json that
#      `report latency` renders.
#  12. tracing smoke test: the loadgen -url leg runs with -trace-sample 1,
#      so both sides persist traces.jsonl; a client trace ID must appear in
#      the server's traces.jsonl, `report trace client server` must render
#      the merged cross-process tree with the server span nested under the
#      client span, and `report slo` must gate the committed served-latency
#      fixture from its histograms alone.
set -eu

cd "$(dirname "$0")/.."

short=0
if [ "${1:-}" = "-short" ]; then
    short=1
    shift
fi

echo "verify: gofmt" >&2
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "verify: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "verify: go build ./..." >&2
go build ./...

echo "verify: go vet ./..." >&2
go vet ./...

echo "verify: sampling kernel inlines" >&2
inlined="$(go build -gcflags=-m ./internal/stats 2>&1)"
for fn in '(\*RNG)\.Uint64' '(\*pcg)\.Uint64' '(\*Categorical)\.SampleWord' 'Coin\.Flip'; do
    if ! printf '%s\n' "$inlined" | grep -q "can inline $fn\$"; then
        echo "verify: stats $fn no longer inlines (go build -gcflags=-m=2 ./internal/stats shows its cost)" >&2
        exit 1
    fi
done

if [ "$short" = 1 ]; then
    echo "verify: go test -short ./..." >&2
    go test -short ./...
else
    echo "verify: go test ./..." >&2
    go test ./...

    echo "verify: go test -race ./..." >&2
    go test -race ./...
fi

echo "verify: benchmark module (go vet + go test)" >&2
(cd benchmark && go vet ./... && go test ./...)

echo "verify: benchdiff smoke" >&2
loadgen_dir="$(mktemp -d)"
trap 'rm -rf "$loadgen_dir"' EXIT
go run ./cmd/benchdiff -q cmd/benchdiff/testdata/old.json cmd/benchdiff/testdata/new_ok.json >/dev/null
if go run ./cmd/benchdiff -q cmd/benchdiff/testdata/old.json cmd/benchdiff/testdata/new_regressed.json >/dev/null 2>&1; then
    echo "verify: benchdiff failed to flag the fixture regression" >&2
    exit 1
fi
if go run ./cmd/benchdiff -q cmd/benchdiff/testdata/old.json cmd/benchdiff/testdata/new_memregressed.json >/dev/null 2>&1; then
    echo "verify: benchdiff failed to flag the fixture memory regression" >&2
    exit 1
fi
# go run reports any nonzero exit as 1, so check the built binary's code.
go build -o "$loadgen_dir/benchdiff" ./cmd/benchdiff
set +e
"$loadgen_dir/benchdiff" -q cmd/benchdiff/testdata/old_count1.json cmd/benchdiff/testdata/new_ok.json >/dev/null 2>&1
code=$?
set -e
if [ "$code" != 3 ]; then
    echo "verify: benchdiff exited $code on the single-sample baseline fixture, want 3 (vacuous)" >&2
    exit 1
fi
set +e
"$loadgen_dir/benchdiff" -q -alpha 0 cmd/benchdiff/testdata/old.json cmd/benchdiff/testdata/new_regressed.json >/dev/null 2>&1
code=$?
set -e
if [ "$code" != 2 ]; then
    echo "verify: benchdiff exited $code on -alpha 0, want 2 (usage)" >&2
    exit 1
fi

echo "verify: report smoke" >&2
go run ./cmd/report tables internal/report/testdata/base >/dev/null
go run ./cmd/report trace internal/report/testdata/base >/dev/null
go run ./cmd/report diff -q internal/report/testdata/base internal/report/testdata/base >/dev/null
if go run ./cmd/report diff -q internal/report/testdata/base internal/report/testdata/drift >/dev/null 2>&1; then
    echo "verify: report diff failed to flag the seeded-drift fixture" >&2
    exit 1
fi

echo "verify: loadgen smoke" >&2
go run ./cmd/loadgen -duration 200ms -scale 0.02 -out "$loadgen_dir/run" >/dev/null
go run ./cmd/report latency "$loadgen_dir/run" >/dev/null
go run ./cmd/report latency internal/report/testdata/latency_base internal/report/testdata/latency_base >/dev/null
if go run ./cmd/report latency internal/report/testdata/latency_base internal/report/testdata/latency_regress >/dev/null 2>&1; then
    echo "verify: report latency failed to flag the seeded-regression fixture" >&2
    exit 1
fi

echo "verify: advisord smoke" >&2
go build -o "$loadgen_dir/advisord" ./cmd/advisord
"$loadgen_dir/advisord" -addr 127.0.0.1:0 -addrfile "$loadgen_dir/addr" \
    -datasets Walmart -scale 0.02 -trace-sample 1 \
    -slo-availability 0.999 -slo-latency-objective 100ms \
    -out "$loadgen_dir/adv_run" >/dev/null &
advisord_pid=$!
i=0
while [ ! -s "$loadgen_dir/addr" ]; do
    if ! kill -0 "$advisord_pid" 2>/dev/null; then
        echo "verify: advisord exited before becoming ready" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "verify: advisord never wrote its addrfile" >&2
        kill "$advisord_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
advisord_url="http://$(cat "$loadgen_dir/addr")"
go run ./cmd/loadgen -url "$advisord_url" \
    -duration 200ms -scale 0.02 -trace-sample 1 \
    -out "$loadgen_dir/client_run" >/dev/null

# Scrape the live /metrics exposition (curl where present, wget otherwise),
# assert the request counter moved and the registry rides along, and let
# `report watch` parse it end to end — the same surface CI uploads as an
# artifact.
if command -v curl >/dev/null 2>&1; then
    curl -fsS "$advisord_url/metrics" >"$loadgen_dir/metrics.prom"
else
    wget -qO "$loadgen_dir/metrics.prom" "$advisord_url/metrics"
fi
requests="$(awk '$1 == "advisord_requests_total" { print int($2) }' "$loadgen_dir/metrics.prom")"
if [ -z "$requests" ] || [ "$requests" -le 0 ]; then
    echo "verify: /metrics advisord_requests_total not positive after loadgen (got '${requests:-missing}')" >&2
    exit 1
fi
if ! grep -q 'advisord_slo_error_budget_burn' "$loadgen_dir/metrics.prom"; then
    echo "verify: /metrics is missing the SLO burn gauge despite SLO flags" >&2
    exit 1
fi
if ! grep -q '^hamlet_' "$loadgen_dir/metrics.prom"; then
    echo "verify: /metrics is missing the metrics registry (no hamlet_* series)" >&2
    exit 1
fi
go run ./cmd/report watch -count 1 -interval 0s "$advisord_url" >/dev/null

kill -TERM "$advisord_pid"
if ! wait "$advisord_pid"; then
    echo "verify: advisord did not drain cleanly on SIGTERM" >&2
    exit 1
fi
if [ -e "$loadgen_dir/addr" ]; then
    echo "verify: advisord left a stale addrfile after clean exit" >&2
    exit 1
fi
go run ./cmd/report latency "$loadgen_dir/adv_run" >/dev/null

echo "verify: tracing smoke" >&2
for traces in "$loadgen_dir/client_run/traces.jsonl" "$loadgen_dir/adv_run/traces.jsonl"; do
    if [ ! -s "$traces" ]; then
        echo "verify: $traces missing or empty despite -trace-sample 1" >&2
        exit 1
    fi
done
# The cross-process join: a trace ID kept by the client must also have been
# kept by the server (head sampling at 1.0 propagates over the wire).
client_tid="$(sed -n '1s/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$loadgen_dir/client_run/traces.jsonl")"
if [ -z "$client_tid" ]; then
    echo "verify: could not extract a trace ID from the client traces.jsonl" >&2
    exit 1
fi
if ! grep -q "$client_tid" "$loadgen_dir/adv_run/traces.jsonl"; then
    echo "verify: client trace $client_tid has no server half in adv_run/traces.jsonl" >&2
    exit 1
fi
go run ./cmd/report trace "$loadgen_dir/client_run" "$loadgen_dir/adv_run" >"$loadgen_dir/trace.out"
if ! grep -q '\[server\]' "$loadgen_dir/trace.out" || ! grep -Eq 'assembled .* [1-9][0-9]* complete' "$loadgen_dir/trace.out"; then
    echo "verify: report trace did not assemble a complete cross-process tree:" >&2
    cat "$loadgen_dir/trace.out" >&2
    exit 1
fi
go run ./cmd/report slo -latency-objective 5ms internal/report/testdata/served_base >/dev/null
if go run ./cmd/report slo -latency-objective 2us internal/report/testdata/served_base >/dev/null 2>&1; then
    echo "verify: report slo failed to flag the exhausted budget on the served fixture" >&2
    exit 1
fi

echo "verify: ok" >&2
