#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload mem-mixed --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root of
# the checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
