#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload halo_tcp --seed 1 --seconds 20 --trace 0
# The binary, the span dump and everything the go command writes (build
# cache, module path, telemetry counters) stay under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so the benchmark writes
# nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/perfbench-spans.jsonl" "$@"
