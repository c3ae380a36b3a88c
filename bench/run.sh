#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write (Go's build
# cache, temporary files, the binary, the nodes' data directories) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/sigbench" .
cd "$root"
exec "$build/sigbench" "$@"
