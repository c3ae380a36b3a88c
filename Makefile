GO ?= go

.PHONY: check build vet test race alloc-budget bench bench-smoke bench-baseline bench-e2e-smoke obs-smoke tidy crash-test sim-smoke fuzz-smoke cluster-smoke failover-smoke federate-smoke segment-smoke

# Tier-1 gate: everything a PR must keep green. Examples live under
# ./... so `go build`/`go vet` compile-check them too.
check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation budgets, which the race line cannot run: under -race
# the runtime drops sync.Pool puts, so every test that pins what a
# request may allocate skips there (internal/budget). Hot and
# cold label search, a failed cold search, the cold-search soak under a
# memory limit, a released block read, SelfRetrievalAUC, a WAL open, one
# ingest batch and one window close (6 allocations and 1.5 KB a source),
# the engine's and querier's rows, and a parallel engine job — Rows,
# MapRows, MapTriangle and PairsWithin, each as many allocations at
# 1 300 rows as at 130.
alloc-budget:
	$(GO) test -run 'Alloc|Budget' ./internal/distmat/ ./internal/store/ \
		./internal/segment/ ./internal/eval/ ./internal/wal/ ./internal/server/

# Fault-injection and crash-recovery suite: failpoint-driven kill/
# corruption tests across the WAL (the commit order: torn commits, what
# Reset drops and Rotate seals, the directory syncs of a rotation and of
# a new log), the snapshot store (every Save
# failpoint on either side of the manifest rename, saving over another
# lineage, the old-format refusals, the directory syncs of a new
# snapshot or segment directory) and the server's recovery path — a
# crash at every failpoint hit inside a batch and around a generation
# change, then the client's retry; a crash at every hit of a window
# close's compaction, window file, manifest and sweep, on one P and on
# two (TestCrashInsideWindowClose); a boot the store refuses writing
# nothing, the WAL included, and a corrupt WAL quarantined only once
# the store has opened — under the race detector.
crash-test:
	$(GO) test -race ./internal/fault/ ./internal/wal/ ./internal/store/ \
		-run 'Torn|Corrupt|Crash|Failpoint|Fault|Quarantine|Snapshot|Lineage|OldFormat|Commit|Rotate|Staged'
	$(GO) test -race ./internal/server/ \
		-run 'Crash|Corrupt|Torn|SnapshotFailure|ShutdownSave|OldFormat|RefusedAtBoot|Throttled|Dedup|Retries|FailedSave|FollowerPoll|IngestLogs|RestartLogs'

# Deterministic simulation (internal/simcheck): drives the real
# store+WAL+server through a seeded ≥10k-op schedule of ingest, search,
# snapshots, fault injection, restarts and torn-tail crashes, checked
# against an in-memory reference model. A divergence prints the seed
# and a minimized op trace; re-running the seed replays it exactly.
sim-smoke:
	$(GO) test -race -run 'TestSim' ./internal/simcheck/

# Cluster smoke: the 2-shard (+1 follower) topology tests — routed
# ingest accounting, scatter-gather search/anomaly/watchlist answers
# bit-identical to a single node over the union, partial-result
# degradation with a shard down, and WAL-shipped follower catch-up
# serving reads after the primary dies — plus the ring properties and
# the RNG-driven cluster-equivalence simulation.
cluster-smoke:
	$(GO) test -race -run 'TestCluster|TestRing' ./internal/cluster/
	$(GO) test -race -run 'TestSimCluster' ./internal/simcheck/

# Failover smoke: kill a shard primary mid-run — the health prober
# marks it down, reads fail over to the freshest follower (surfaced in
# stale_shards), the follower auto-promotes and writes resume with
# dedup continuity — plus the prober state-machine unit tests and the
# fault-injecting simulation schedules. See DESIGN.md §13.
failover-smoke:
	$(GO) test -race -v -run 'TestClusterFailoverPromotion|TestProber|TestRouterIngestHonorsRetryAfter' \
		./internal/cluster/
	$(GO) test -race -run 'TestSimClusterFailover' ./internal/simcheck/

# Federation smoke: the cluster observability e2e tests — a routed
# batch search across a 2-shard (+1 follower, failover-read) topology
# must yield ONE trace ID on every participating node, GET
# /v1/traces/{id} must stitch the segments into a single tree with the
# critical path marked, and GET /metrics?federate=1 must serve a valid
# exposition whose cluster counter aggregates equal the per-shard sums
# — plus the obs-level federation and trace-context unit/property
# tests. See DESIGN.md §15.
federate-smoke:
	$(GO) test -race -v -run 'TestClusterFederateSmoke|TestClusterStitchedFailoverTrace' \
		./internal/cluster/
	$(GO) test -race -run 'TestTraceContext|TestStartRemote|TestParseExposition|TestWriteFederated|TestFederatedHistogram' \
		./internal/obs/

# Cold-tier smoke: the tiered store's segment suite — compaction
# equivalence vs an unbounded archive, crash/fault injection at the
# segment write and commit points, quarantine-at-attach, restart
# long-horizon history/search e2e (5x capacity, bit-identical to an
# unbounded run), bitwise follower segments, and the segment-mode
# simulation seeds with the model holding the unbounded archive — the
# binary block codec's layout, round-trip and corruption-table tests,
# the v2 fixture and the refusal of the v1 one (segment, store attach and
# server boot), a cold read that rots after boot (store and HTTP), cold
# reads beside compaction and pruning, and one iteration of the layer's
# own benchmarks and of the store's cold-search ones.
segment-smoke:
	$(GO) test -race -run 'TestSegment|TestBlock|TestStoreTiered|TestStoreLoadOverCapacity|TestHistoryRange|TestStoreColdRead|TestStoreOldFormatSegment|TestColdReads' \
		./internal/segment/ ./internal/store/
	$(GO) test -run '^$$' -bench 'BenchmarkSegment' -benchtime=1x -benchmem ./internal/segment/
	$(GO) test -run '^$$' -bench 'BenchmarkStoreSearch/cold' -benchtime=1x -benchmem ./internal/store/
	$(GO) test -race -run 'TestServerSegment|TestServerColdRead|TestHistoryHTTPParams|TestOldFormatSegment' ./internal/server/
	$(GO) test -race -run 'TestFollowerSegmentsBitwise' ./internal/cluster/
	$(GO) test -race -run 'TestSimSegments' ./internal/simcheck/

# Bounded runs of the twelve native fuzz targets: the netflow binary codec
# (the stream form, and the per-record decoder the WAL shares with it,
# where an accepted record must re-encode to the bytes consumed),
# WAL frame recovery, the distance kernels (bit-identity vs the naive
# loops), the segment reader (whole files through Open; single window
# blocks, where an accepted block must re-encode to itself), the
# snapshot's manifest and label-file parsers (each accepts only what
# Save writes), the exposition parser the router runs over shard
# bodies (an accepted body must re-render through WriteFederated and
# parse again to the same families), the POST /v1/flows codec
# (the reader against encoding/json and its runs, at a lowered
# threshold, against the single parse; the writer against json.Marshal),
# the search routes, POST /v1/search and /v1/search/batch (never a
# panic or a 500; a 200 ranks at most k hits, in order, within max_dist),
# and POST /v1/watchlist (never a panic or a 500; an answer other than
# 200 leaves the universe, the watchlist and the WAL's size unchanged).
# Committed corpora under testdata/fuzz/ replay as regression cases in
# the plain test suite; this also explores briefly (scripts/check.sh
# passes FUZZTIME=15s).
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/netflow/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/netflow/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzDistKernels -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSegmentOpen -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBlock -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzLoadManifest -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzLoadLabels -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzParseExposition -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzReadFlows -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzSearchRequest -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzWatchlistAdd -fuzztime $(FUZZTIME) ./internal/server/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of the pairwise-engine benchmarks under the race
# detector: a cheap smoke test that the engine's parallel paths are
# race-clean and still bit-identical to the naive loops they replace,
# then the engine's scheduler tests under the race detector at 1, 2 and
# 4 cores (an engine built with 0 workers runs on GOMAXPROCS of them),
# with the reductions folded in its workers: the uniqueness summary's
# bits at every worker count, the self-retrieval AUC, the partial merge
# they rest on, and the triangle job with the exact symmetry of every
# registered distance that lets uniqueness compute half the matrix. The sigbench line then drives the engine on a
# scaled dataset — runPairwise exits non-zero on any `identical:
# false`. The next four are one iteration of the write path's layer
# benchmarks: the WAL's — opening a 38 000-record log, one
# commit of records alone and of records with their marker (syncs and
# bytes a commit), a generation change by truncation and by rotation —,
# one 100-record batch with an ID through the server onto real files
# (ms and WAL syncs a batch) and a 2 000-record batch through the
# POST /v1/flows codec and through what it replaced (decode, encode and
# a loopback read of the body), one 1 200-source
# window through the pipeline at sigserverd's default sketch — every source sparse, and
# with a Zipf head that goes dense — and the checkpoint of one window
# close with and without new labels, and one restart (server.New over
# 8 hot and 4 cold windows of 1 200 sources and an open window of
# 38 000 records in the WAL: ms and allocations a boot) (all at the
# `wide` serving shape).
# Then the read side's: one pass of
# the end-to-end harness's analytics stage at its 2 000 sources (each
# call's ms and a hash of the outputs), the self-retrieval AUC at
# 2 000 x 2 000, and a label search 4 x 1 200 and 12 x 400 cold windows
# deep.
bench-smoke:
	$(GO) test -race -run=^$$ -benchtime=1x \
		-bench 'BenchmarkPairwiseUniqueness|BenchmarkMultiusageAllPairs' .
	$(GO) test -race -cpu 1,2,4 -run 'Parallel|PairsWithin|Rows|Panic|UniquenessSummaryWorkers|SelfRetrievalAUC|Merge|Symmetry|Triangle' \
		./internal/core/ ./internal/distmat/ ./internal/eval/ ./internal/stats/
	$(GO) run ./cmd/sigbench -experiment pairwise -scale 0.5
	$(GO) test -run=^$$ -benchtime=1x -benchmem \
		-bench 'BenchmarkWALOpen|BenchmarkWALAppend|BenchmarkWALGenerationChange' ./internal/wal/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkIngestSmallBatch|BenchmarkFlowsCodec|BenchmarkServerRestart' ./internal/server/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -cpu 1,2 -bench 'BenchmarkServerWindowClose' ./internal/server/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkPipelineWindow' ./internal/stream/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkStoreSave' ./internal/store/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkAnalyticsPass' .
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkSelfRetrievalAUC' ./internal/eval/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkStoreSearch/cold' ./internal/store/

# Throughput regression check, benchstat style: the full-scale pairwise
# report pinned to one core, engine pairs/sec diffed against the
# committed baseline (the "Baseline delta" block that ends the output).
# Warn-only — shared CI boxes are noisy — but the WARN lines make a >20%
# regression visible in the log.
bench-baseline:
	GOMAXPROCS=1 $(GO) run ./cmd/sigbench -experiment pairwise \
		-baseline BENCH_pairwise.json

# End-to-end benchmark smoke: bench/ is a module of its own (the
# BENCHMARK.json harness; see bench/README.md), so `./...` above never
# reaches it. Its tests run a small round of every stage — ingest,
# tiered queries, the 2-shard cluster, analytics — with the harness's
# output checks on (HTTP hits ≡ Store.SearchLabel, cold ≡ unbounded
# reference, routed ≡ single node).
bench-e2e-smoke:
	$(GO) test -C bench ./...

# Observability smoke: boot sigserverd in replay mode end to end. The
# replay scrapes /metrics through the client's one metrics call, which
# parses the exposition (requiring the serving histograms), and fetches
# a trace from /v1/traces — all through the real HTTP stack. Then the
# series-reader gate: a primary, a follower and a router export only
# families some test, tool, doc, benchmark or script names beyond the
# file registering them; and /v1/traces's ?n= on a node and a router.
obs-smoke:
	$(GO) test -race -run 'TestReplayRunExits' ./cmd/sigserverd/
	$(GO) test -race -run 'TestMetricSeriesHaveReaders|TestTracesParam' ./internal/cluster/

tidy:
	gofmt -l -w .
