#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, telemetry, the binary) stays under .bench_build (or
# $CARGO_TARGET_DIR when set), so a run touches nothing outside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C bench build -o "$build/fnpr-bench" .
exec "$build/fnpr-bench" "$@"
