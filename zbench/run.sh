#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash zbench/run.sh --workload predict_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, temporary files, disk tiers and span dumps.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd zbench && go build -o "$out/zbench" .)
exec "$out/zbench" "$@"
