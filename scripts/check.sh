#!/bin/sh
# The gate: build (compile-checks the examples too), vet, optional
# staticcheck, the full test suite under the race detector, then the
# `make` targets that cover what that line does not reach.
set -eu
cd "$(dirname "$0")/.."

go build ./...
# gofmt lists every file whose formatting differs; any name fails the gate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "check.sh: gofmt -l lists files to format:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
# staticcheck is optional tooling: run it when installed, skip quietly
# when not — CI images without it still get the full vet+race gate.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "check.sh: staticcheck not installed; skipping"
fi
go test -race ./...
# What ./... does not reach is defined once, in the Makefile: the
# allocation budgets, which skip under the race detector; the
# pairwise-engine benchmarks and the engine's scheduler tests at 1, 2 and
# 4 cores under the race detector plus the sigbench engine-vs-naive run (exits non-zero on any `identical: false`), the
# warn-only single-core throughput diff against BENCH_pairwise.json,
# bench/ (its own module: the BENCHMARK.json harness with its output
# checks on), and a short exploratory run of all fourteen fuzz targets. The
# other *-smoke targets are -run subsets of the race line above, for
# working on one subsystem; the gate does not repeat them.
make alloc-budget bench-smoke bench-baseline bench-e2e-smoke
make fuzz-smoke FUZZTIME=15s
