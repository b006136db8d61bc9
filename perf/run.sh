#!/usr/bin/env bash
# Builds the perf benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perf/run.sh --workload overlap-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (the Go build cache, the
# binary, generated inputs, span files) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout. The build is offline.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -o "$out/perf" .)
exec "$out/perf" -work "$out/perf-work" "$@"
