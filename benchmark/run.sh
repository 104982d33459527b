#!/bin/sh
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   sh benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temp
# files, trace run dirs) stays under .bench_build/ at the root.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
