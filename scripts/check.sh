#!/bin/sh
# Tier-1 gate, shell form of `make check`: build (compile-checks the
# examples too), vet, optional staticcheck, and the full test suite
# under the race detector.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# staticcheck is optional tooling: run it when installed, skip quietly
# when not — CI images without it still get the full vet+race gate.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "check.sh: staticcheck not installed; skipping"
fi
go test -race ./...
# Pairwise-engine smoke: one iteration of the engine-vs-naive benchmarks
# under the race detector (each sub-benchmark asserts nothing by itself,
# but the engine paths they drive are covered by bit-identity property
# tests; this catches races in the sharded row execution).
go test -race -run '^$' -benchtime=1x \
	-bench 'BenchmarkPairwiseUniqueness|BenchmarkMultiusageAllPairs' .
# The sigbench pairwise experiment on a scaled dataset: exits non-zero
# if any engine result diverges from the naive loops (identical: false).
go run ./cmd/sigbench -experiment pairwise -scale 0.5 >/dev/null
# Throughput regression check, benchstat style: rerun the full-scale
# pairwise report pinned to one core and diff engine pairs/sec against
# the committed baseline. Warn-only — shared CI boxes are noisy — but
# the WARN lines make a >20% regression visible in the log.
pairwise_out=$(mktemp)
trap 'rm -f "$pairwise_out"' EXIT
GOMAXPROCS=1 go run ./cmd/sigbench -experiment pairwise \
	-baseline BENCH_pairwise.json >"$pairwise_out"
sed -n '/Baseline delta/,$p' "$pairwise_out"
# End-to-end benchmark smoke (make bench-e2e-smoke): bench/ is its own
# module, outside ./... — its tests run a small round of every stage of
# the BENCHMARK.json harness with the output checks on, so a change that
# breaks what the harness calls (or an answer it verifies) fails here,
# not in the driver.
go test -C bench ./...
# Observability smoke (make obs-smoke): the sigserverd replay e2e boots
# the daemon, scrapes /metrics?format=prom, validates the exposition
# with the obs line checker, and fetches a trace from /v1/traces.
go test -race -run 'TestReplayRunExits' ./cmd/sigserverd/
# Simulation smoke (make sim-smoke): the deterministic simulation
# harness replays its fixed seed set (≥10k ops, incl. fault and crash
# schedules) against the reference model under the race detector.
go test -race -run 'TestSim' ./internal/simcheck/
# Cluster + failover smoke (make cluster-smoke / failover-smoke): the
# full cluster package under the race detector — 2-shard bit-identical
# scatter-gather, degradation with a shard down, follower WAL catch-up,
# the prober state machine, and the kill-a-primary failover/promotion
# e2e. (The fault-injecting TestSimClusterFailover already ran in the
# simcheck line above.)
go test -race ./internal/cluster/...
# Federation smoke (make federate-smoke): the cluster observability
# e2es — a routed batch search must yield one stitched trace spanning
# router + shards (+ follower under failover) at GET /v1/traces/{id},
# and GET /metrics?federate=1 must serve a valid exposition whose
# cluster aggregates equal the per-shard sums. The cluster race line
# above already ran those tests; this line keeps the obs-level
# federation/trace-context property tests in the gate explicitly.
go test -race -run 'TestTraceContext|TestStartRemote|TestParseExposition|TestWriteFederated|TestFederatedHistogram' ./internal/obs/
# Segment smoke (make segment-smoke): the cold-tier e2es the race run
# above may have sampled — long-horizon restart (5x capacity served
# bit-identical to an unbounded run), crash mid-compaction, and the
# segment-mode simulation seeds — pinned explicitly in the gate.
go test -race -run 'TestServerSegment|TestHistoryHTTPParams' ./internal/server/
go test -race -run 'TestSimSegments' ./internal/simcheck/
# Fuzz smoke (make fuzz-smoke, the same six targets): short exploratory
# runs of every native fuzz target; their seed and committed testdata
# corpora already replay as regression cases in the race run above.
go test -run '^$' -fuzz FuzzReadBinary -fuzztime 15s ./internal/netflow/
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 15s ./internal/wal/
go test -run '^$' -fuzz FuzzDistKernels -fuzztime 15s ./internal/core/
go test -run '^$' -fuzz FuzzSegmentOpen -fuzztime 15s ./internal/segment/
go test -run '^$' -fuzz FuzzDecodeBlock -fuzztime 15s ./internal/segment/
go test -run '^$' -fuzz FuzzLoadManifest -fuzztime 15s ./internal/store/
