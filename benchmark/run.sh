#!/usr/bin/env bash
# Builds the benchmark and the real blossomd from source into .bench_build/
# of the checkout, then runs the benchmark with the given arguments. Every
# byte the build writes (build cache, module cache, the go command's own
# configuration and telemetry directory) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/bin/benchmark" .
go build -o "$build/bin/blossomd" ./cmd/blossomd
exec "$build/bin/benchmark" "$@"
