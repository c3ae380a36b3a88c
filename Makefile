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
# request may allocate skips there (internal/budget). Hot label,
# inline-signature and batch search, cold label search, a failed cold
# search, the cold-search soak under a memory limit, a released block
# read, SelfRetrievalAUC, a WAL open, one
# flows batch (3 allocations a record, 2 when laid out as AppendFlows
# writes it), one ingest batch and one window close (6 allocations and
# 1.5 KB a source), a laid-out search response and signature batch
# request (an allocation a hit and a member, the same at 10 and at 1 000
# hits), the engine's and querier's rows, and a parallel engine job — Rows,
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

# Deterministic simulation (internal/simcheck): one op generator drives
# the real store+WAL+server through a seeded ≥10k-op schedule of ingest,
# search, batch search, history, watchlist, snapshots, fault injection,
# restarts and torn-tail crashes — and a router over in-process shards
# through the same generator — checked against one in-memory reference
# model. A divergence prints the seed and a minimized op trace;
# re-running the seed replays it exactly.
sim-smoke:
	$(GO) test -race -run 'TestSim' ./internal/simcheck/

# Cluster smoke: the 2-shard (+1 follower) topology tests — routed
# ingest accounting, scatter-gather search/anomaly/watchlist answers
# bit-identical to a single node over the union, the route table
# (TestClusterRoutesMatchNode: a node, a one-shard and a two-shard
# router answer every request with the same status, the same refusal
# text and the same 200 body bar the coverage block; TestClusterRoutesGolden
# pins those bodies' bytes; TestClusterRoutesLaidOut: every search and
# history body of its 200 cases, at the node, the routers and the shards,
# is read in its own layout, and so is the client's flows batch; TestClusterRefusalPassesThrough: a refused
# request costs no shard request and no client retry), partial-result
# degradation with a shard down, and WAL-shipped follower catch-up
# serving reads after the primary dies — plus the ring properties, the
# simulation's router seeds (the node's op generator against a router
# over in-process shards, held to the same model), and the one-address rule:
# the router refuses a shard of more than one address, the follower more
# than one primary, and sigrouterd -shard a,b and sigserverd -follow a,b
# are refused (a shard's replicas go in -follower, the prober's path).
cluster-smoke:
	$(GO) test -race -run 'TestCluster|TestRing' ./internal/cluster/
	$(GO) test -race -run 'TestSimCluster' ./internal/simcheck/
	$(GO) test -run 'RefusesAddressList' ./cmd/sigrouterd/ ./cmd/sigserverd/

# Failover smoke: kill a shard primary mid-run — the health prober
# marks it down, reads fail over to the freshest follower (surfaced in
# stale_shards), the follower auto-promotes and writes resume with
# dedup continuity — plus the prober state-machine unit tests, a
# promotion that fails (500, the follower's status fatal, nothing
# counted, writes kept on the primary slot; TestProberPromoteFailure…),
# and the simulation's failover seeds (shard 0's primary killed mid-run,
# the follower's read, promotion and dedup replay held to the model).
# See DESIGN.md §13.
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
# reads beside compaction and pruning, the block scan held to SigInto +
# d.Dist under all six distances (the round-trip property and
# FuzzDecodeBlock's seeds), the search oracle with the cold store's probe
# counts pinned, and one iteration of the layer's own benchmarks (write,
# read, verify, scan) and of the store's cold-search ones (Jaccard at
# both depths, ScaledHellinger at the deep one).
segment-smoke:
	$(GO) test -race -run 'TestSegment|TestBlock|TestStoreTiered|TestStoreLoadOverCapacity|TestHistoryRange|TestStoreColdRead|TestStoreOldFormatSegment|TestColdReads|TestSearchRing|FuzzDecodeBlock' \
		./internal/segment/ ./internal/store/
	$(GO) test -run '^$$' -bench 'BenchmarkSegment' -benchtime=1x -benchmem ./internal/segment/
	$(GO) test -run '^$$' -bench 'BenchmarkStoreSearch/cold' -benchtime=1x -benchmem ./internal/store/
	$(GO) test -race -run 'TestServerSegment|TestServerColdRead|TestHistoryHTTPParams|TestOldFormatSegment' ./internal/server/
	$(GO) test -race -run 'TestFollowerSegmentsBitwise' ./internal/cluster/
	$(GO) test -race -run 'TestSimSegments' ./internal/simcheck/

# Bounded runs of the fourteen native fuzz targets: the netflow binary codec
# (the stream form, and the per-record decoder the WAL shares with it,
# where an accepted record must re-encode to the bytes consumed),
# WAL frame recovery, the distance kernels (bit-identity vs the naive
# loops), the segment reader (whole files through Open; single window
# blocks, where an accepted block must re-encode to itself), the
# snapshot's manifest and label-file parsers (each accepts only what
# Save writes), the exposition parser the router runs over shard
# bodies (an accepted body must re-render through WriteFederated and
# parse again to the same families), the POST /v1/flows reader
# (a binary body a 400 or records that re-encode to it, a JSON body as
# encoding/json reads it, what the client sends as its JSON body reads),
# the search routes, POST /v1/search and /v1/search/batch (never a
# panic or a 500; a 200 ranks at most k hits, in order, within max_dist),
# the same routes through a one-shard router (the node's status, never a
# 5xx, and a 200 body the node's once the router's coverage block is
# removed), POST /v1/watchlist (never a panic or a 500; an answer other than
# 200 leaves the universe, the watchlist and the WAL's size unchanged), and
# the search and history bodies' laid-out readers (a body one takes decodes
# through encoding/json to the same value; what encoding/json writes is
# taken whole).
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
	$(GO) test -run '^$$' -fuzz FuzzRoutedSearchRequest -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzWatchlistAdd -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzSearchBodies -fuzztime $(FUZZTIME) ./internal/server/

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
# POST /v1/flows codec, in the client's binary stream and in JSON
# through encoding/json (decode, encode, and a loopback read of the
# binary body), the search and history bodies through their
# layout and through encoding/json (a 10-hit and a 32-slot response, a
# one-slot signature batch request), one 1 200-source
# window through the pipeline at sigserverd's default sketch — every source sparse, and
# with a Zipf head that goes dense — and the checkpoint of one window
# close with and without new labels, and one restart (server.New over
# 8 hot and 4 cold windows of 1 200 sources and an open window of
# 38 000 records in the WAL: ms and allocations a boot) (all at the
# `wide` serving shape).
# Then the read side's: one pass of
# the end-to-end harness's analytics stage at its 2 000 sources (each
# call's ms and a hash of the outputs), the self-retrieval AUC at
# 2 000 x 2 000, a label search 4 x 1 200 and 12 x 400 cold windows
# deep (the latter under Jaccard and ScaledHellinger, whose cold rows
# the block scan finishes from their weights), the 4 x 1 200 depth
# scanned whole, and a batch of 32 searches over 8 x 1 200 hot windows.
bench-smoke:
	$(GO) test -race -run=^$$ -benchtime=1x \
		-bench 'BenchmarkPairwiseUniqueness|BenchmarkMultiusageAllPairs' .
	$(GO) test -race -cpu 1,2,4 -run 'Parallel|PairsWithin|Rows|Panic|UniquenessSummaryWorkers|SelfRetrievalAUC|Merge|Symmetry|Triangle' \
		./internal/core/ ./internal/distmat/ ./internal/eval/ ./internal/stats/
	$(GO) run ./cmd/sigbench -experiment pairwise -scale 0.5
	$(GO) test -run=^$$ -benchtime=1x -benchmem \
		-bench 'BenchmarkWALOpen|BenchmarkWALAppend|BenchmarkWALGenerationChange' ./internal/wal/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkIngestSmallBatch|BenchmarkFlowsCodec|BenchmarkSearchCodec|BenchmarkServerRestart' ./internal/server/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -cpu 1,2 -bench 'BenchmarkServerWindowClose' ./internal/server/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkPipelineWindow' ./internal/stream/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkStoreSave' ./internal/store/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkAnalyticsPass' .
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkSelfRetrievalAUC' ./internal/eval/
	$(GO) test -run=^$$ -benchtime=1x -benchmem -bench 'BenchmarkStoreSearch/(cold|batch32)' ./internal/store/

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
# a trace from /v1/traces — all through the real HTTP stack. Beside it,
# each daemon's flag audit (TestFlagsHaveSetters): every flag of
# sigserverd and sigrouterd is a listed deployment setting or paper
# parameter, or a command line or span in the docs, Makefile, scripts
# or skills sets it, and every daemon command line there parses. Then
# the series-reader gate: a primary, a follower and a router export only
# families some test, tool, doc, benchmark or script names beyond the
# file registering them; and /v1/traces's ?n= on a node and a router.
obs-smoke:
	$(GO) test -race -run 'TestReplayRunExits|TestFlagsHaveSetters' ./cmd/sigserverd/ ./cmd/sigrouterd/
	$(GO) test -race -run 'TestMetricSeriesHaveReaders|TestTracesParam' ./internal/cluster/

tidy:
	gofmt -l -w .
