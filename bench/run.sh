#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it with the given arguments. Everything go writes (build cache,
# temp files, telemetry counters, the binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"
go -C "$root/bench" build -o "$build/startsbench" .
cd "$root"
exec "$build/startsbench" "$@"
