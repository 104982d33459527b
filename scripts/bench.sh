#!/bin/sh
# bench.sh — run the repo's benchmark suite and snapshot the results as JSON.
#
# Usage:
#   scripts/bench.sh                     # full suite -> BENCH_<YYYY-MM-DD>.json
#   scripts/bench.sh ForwardSel          # only benchmarks matching the pattern
#   scripts/bench.sh -count 5            # 5 samples per benchmark, so
#                                        # cmd/benchdiff can t-test the deltas;
#                                        # taken as 5 passes of -count 1 over
#                                        # the whole pattern, so one slow
#                                        # stretch of a shared host moves one
#                                        # sample of each benchmark, not all
#   BENCHTIME=1x scripts/bench.sh        # override -benchtime (default 1s)
#   BENCH_OUT=new.json scripts/bench.sh  # override the output path (CI uses
#                                        # this so a same-day run can't
#                                        # overwrite the committed baseline)
#
# The JSON is {"meta": {...}, "benchmarks": [...]}: meta pins the commit,
# date, Go version, benchtime, pattern, sample count and the hardware (CPU
# count, GOMAXPROCS, the CPU model `go test` reports); benchmarks is one
# {name, iterations, ns_per_op, bytes_per_op, allocs_per_op} object per
# benchmark line (repeated names = repeated samples, one per pass). Compare two
# snapshots with `go run ./cmd/benchdiff old.json new.json`.
set -eu

cd "$(dirname "$0")/.."

count=1
if [ "${1:-}" = "-count" ]; then
    count="${2:?bench.sh: -count needs a value}"
    shift 2
fi
pattern="${1:-.}"
benchtime="${BENCHTIME:-1s}"
commit="$(git rev-parse HEAD 2>/dev/null || echo "")"
goversion="$(go env GOVERSION)"
today="$(date +%F)"
numcpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
gomaxprocs="${GOMAXPROCS:-$numcpu}"
out="${BENCH_OUT:-BENCH_${today}.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

pass=0
while [ "$pass" -lt "$count" ]; do
    pass=$((pass + 1))
    echo "bench.sh: pass $pass/$count: go test -run ^\$ -bench $pattern -benchtime $benchtime -count 1 -benchmem ./..." >&2
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 1 -benchmem ./... | tee -a "$raw" >&2
done

cpu="$(sed -n 's/^cpu: //p' "$raw" | head -n 1 | sed 's/[\\"]//g')"

awk -v commit="$commit" -v today="$today" -v goversion="$goversion" \
    -v benchtime="$benchtime" -v pattern="$pattern" -v count="$count" \
    -v numcpu="$numcpu" -v gomaxprocs="$gomaxprocs" -v cpu="$cpu" '
BEGIN {
    printf "{\n  \"meta\": {\"commit\": \"%s\", \"date\": \"%s\", \"go_version\": \"%s\", \"benchtime\": \"%s\", \"pattern\": \"%s\", \"count\": %d, \"num_cpu\": %d, \"gomaxprocs\": %d, \"cpu\": \"%s\"},\n", \
        commit, today, goversion, benchtime, pattern, count, numcpu, gomaxprocs, cpu
    print "  \"benchmarks\": ["
}
$1 ~ /^Benchmark/ && NF >= 3 {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2; ns = $3; bytes = "null"; allocs = "null"
    for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, bytes, allocs
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "bench.sh: wrote $(grep -c '"name"' "$out") results to $out" >&2
