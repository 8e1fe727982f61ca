#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#	bash perfbench/run.sh --workload invoke-1way --seed 1 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, temporary files, traces)
# stays under .bench_build in the checkout, or under $CARGO_TARGET_DIR when
# that is set.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
