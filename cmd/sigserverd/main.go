// Command sigserverd is the online signature service: it ingests flow
// records over HTTP through the §VI streaming pipeline, archives each
// completed window's signatures in a bounded in-memory store, and
// serves history, nearest-signature search, watchlist and anomaly
// queries against the archive.
//
//	sigserverd -addr :8787 -window 120h -scheme tt -k 10 \
//	    -snapshot /var/lib/sigserverd
//
// Endpoints (JSON but for /metrics):
//
//	POST /v1/flows                 batch flow ingestion
//	GET  /v1/signatures/{label}    per-label signature history
//	POST /v1/search                top-k nearest signatures
//	POST /v1/search/batch          many searches under one distance
//	POST /v1/watchlist             archive a label under an individual
//	GET  /v1/watchlist/hits        recorded reappearance hits
//	GET  /v1/anomalies             behaviour changes, last two windows
//	GET  /v1/persistence           label persistence, last two windows
//	GET  /v1/replication/status    WAL generations a follower can fetch
//	GET  /v1/replication/wal       WAL bytes for a follower (-replicate)
//	GET  /v1/traces                recent request traces
//	GET  /v1/traces/{id}           one trace's spans
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness and cluster identity
//	GET  /metrics                  Prometheus text exposition
//
// On SIGINT/SIGTERM the daemon drains HTTP, flushes the partial
// window, and — when -snapshot is set — saves the store so a restart
// resumes with its archive. Between restarts the write-ahead log
// beside the snapshot directory covers what the snapshot does not.
//
// With -replay the daemon feeds a synthetic datagen enterprise
// workload to itself through the real HTTP ingest path, checks the
// flow counters and the observability surface, and exits: a self-test
// of the full serving stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/core"
	"graphsig/internal/daemon"
	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

type options struct {
	addr        string
	window      time.Duration
	origin      string
	localPrefix string
	scheme      string
	k           int
	distance    string
	capacity    int
	snapshot    string
	segments    string
	segRetain   int
	debugAddr   string
	slowOp      time.Duration

	shardIndex int
	shardCount int
	replicate  bool
	follow     string

	replay        bool
	replayHosts   int
	replayWindows int
}

// The daemon's fixed tuning. The sketch sizes must match on every node
// of a cluster and on a primary's followers, so they are not flags.
var daemonSketch = sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1}

const (
	maxInFlight = 8    // concurrent ingest batches before shedding with 429
	replaySeed  = 1    // replay workload seed
	replayBatch = 2000 // replay records per POST
)

// flags defines the daemon's command line, binding each flag to o.
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("sigserverd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8787", "listen address")
	fs.DurationVar(&o.window, "window", 5*24*time.Hour, "aggregation window size")
	fs.StringVar(&o.origin, "origin", "", "window origin (RFC3339; empty = first record)")
	fs.StringVar(&o.localPrefix, "local-prefix", "10.", "label prefix marking local hosts")
	fs.StringVar(&o.scheme, "scheme", "tt", "streaming signature scheme (tt or ut)")
	fs.IntVar(&o.k, "k", 10, "signature length")
	fs.StringVar(&o.distance, "distance", "jaccard", "default distance (jaccard, dice, sdice, shel, ...)")
	fs.IntVar(&o.capacity, "capacity", 16, "windows retained in the store")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot directory, with the write-ahead log beside it (empty = no persistence)")
	fs.StringVar(&o.segments, "segment-dir", "", "cold-tier segment directory: ring evictions compact into immutable on-disk segments instead of being dropped (empty = bounded in-memory archive only)")
	fs.IntVar(&o.segRetain, "segment-retain", 0, "segment files kept on disk; oldest pruned beyond this (0 = keep all)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	fs.DurationVar(&o.slowOp, "slow-op", 500*time.Millisecond, "traced spans over this duration log a slow-operation warning (0 = disabled)")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "this node's shard index in a cluster (with -shard-count)")
	fs.IntVar(&o.shardCount, "shard-count", 0, "total shards in the cluster (0 = single-node)")
	fs.BoolVar(&o.replicate, "replicate", false, "serve the WAL to read replicas over /v1/replication (requires -snapshot)")
	fs.StringVar(&o.follow, "follow", "", "run as a read replica tailing the primary at this address")
	fs.BoolVar(&o.replay, "replay", false, "self-test: replay a synthetic workload over HTTP, check the counters and the observability surface, then exit")
	fs.IntVar(&o.replayHosts, "replay-hosts", 300, "replay local hosts")
	fs.IntVar(&o.replayWindows, "replay-windows", 6, "replay windows")
	return fs
}

func main() {
	var o options
	_ = flags(&o).Parse(os.Args[1:])
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sigserverd:", err)
		os.Exit(1)
	}
}

func serverConfig(o options) (server.Config, error) {
	d, ok := core.DistanceByName(o.distance)
	if !ok {
		return server.Config{}, fmt.Errorf("unknown distance %q", o.distance)
	}
	if o.follow != "" && (o.replicate || o.replay) {
		return server.Config{}, errors.New("-follow cannot be combined with -replicate or -replay")
	}
	if strings.Contains(o.follow, ",") {
		return server.Config{}, fmt.Errorf("-follow %q: a replica tails one primary address", o.follow)
	}
	scfg := stream.Config{
		WindowSize: o.window,
		Classify:   netflow.PrefixClassifier(o.localPrefix),
		TCPOnly:    true,
		K:          o.k,
		Scheme:     o.scheme,
		Sketch:     daemonSketch,
	}
	if o.origin != "" {
		t, err := time.Parse(time.RFC3339, o.origin)
		if err != nil {
			return server.Config{}, fmt.Errorf("bad -origin: %w", err)
		}
		scfg.Origin = t
	}
	node, err := nodeIdentity(o)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Stream:        scfg,
		StoreCapacity: o.capacity,
		Distance:      d,
		SnapshotDir:   o.snapshot,
		SegmentDir:    o.segments,
		SegmentRetain: o.segRetain,
		MaxInFlight:   maxInFlight,
		SlowOp:        o.slowOp,
		Node:          node,
		Replicate:     o.replicate,
	}, nil
}

// nodeIdentity derives this node's cluster identity for /readyz and
// metric labels. The ring epoch comes from the same ring construction
// the router uses, so a router/shard membership mismatch is visible by
// comparing epochs.
func nodeIdentity(o options) (*server.Identity, error) {
	if o.shardCount < 0 || o.shardIndex < 0 || o.shardIndex >= max(o.shardCount, 1) {
		return nil, fmt.Errorf("-shard-index %d out of range for -shard-count %d", o.shardIndex, o.shardCount)
	}
	role := "single"
	if o.replicate {
		role = "primary"
	}
	id := &server.Identity{Role: role, Shard: o.shardIndex}
	if o.shardCount > 0 {
		ring, err := cluster.NewRing(o.shardCount, 0)
		if err != nil {
			return nil, err
		}
		id.Shards = o.shardCount
		id.RingEpoch = ring.Epoch()
	}
	return id, nil
}

func run(o options, out io.Writer) error {
	// All operational output is structured: one slog line per event,
	// with the server's slow-operation warnings (trace IDs included)
	// interleaved on the same handler.
	logger := slog.New(slog.NewTextHandler(out, nil))

	cfg, err := serverConfig(o)
	if err != nil {
		return err
	}
	cfg.Logger = logger
	if o.follow != "" {
		return runFollower(o, cfg)
	}
	if o.replay {
		// Replay feeds records anchored at the generator's origin; pin
		// the pipeline to it so window indices are predictable.
		gcfg := replayConfig(o)
		cfg.Stream.Origin = gcfg.Origin
		cfg.Stream.WindowSize = gcfg.WindowLength
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if lo, hi, ok := srv.Store().WindowRange(); ok {
		logger.Info("sigserverd: snapshot restored", "oldest_window", lo, "newest_window", hi)
	}
	if rec := srv.Recovery(); rec.WALRecords > 0 {
		logger.Info("sigserverd: WAL replayed",
			"records", rec.WALRecords, "rejected", rec.WALRejected,
			"torn_bytes", rec.WALTornBytes, "windows_closed", rec.WALWindowsClosed)
	}
	if rec := srv.Recovery(); rec.SegmentsAttached > 0 || len(rec.SegmentsQuarantined) > 0 {
		logger.Info("sigserverd: segment tier attached",
			"segments", rec.SegmentsAttached, "cold_windows", rec.SegmentWindows,
			"quarantined", len(rec.SegmentsQuarantined))
	}

	// A finished replay ends serving with its own result.
	ctx, finish := context.WithCancelCause(context.Background())
	defer finish(nil)
	runErr := daemon.Serve(ctx, o.addr, o.debugAddr, srv.Handler(), logger, func(base string) {
		logger.Info("sigserverd: serving on "+base,
			"window", cfg.Stream.WindowSize, "scheme", cfg.Stream.Scheme, "k", cfg.Stream.K)
		// Startup readiness probe through the real listener: the same
		// check a load balancer would run, logged so a misconfigured boot
		// (e.g. durability requested but WAL unopenable) is visible
		// immediately.
		if ready, err := server.NewClient(base).Ready(); err != nil {
			logger.Warn("sigserverd: readiness probe failed", "err", err)
		} else {
			logger.Info("sigserverd: ready", "ready", ready.Ready)
		}
		if o.replay {
			go func() { finish(replay(o, base, logger)) }()
		}
	})
	if err := srv.Shutdown(); err != nil && runErr == nil {
		runErr = err
	}
	if o.snapshot != "" {
		logger.Info("sigserverd: snapshot saved to "+o.snapshot, "windows", srv.Store().Len())
	}
	return runErr
}

// runFollower runs the daemon as a WAL-tailing read replica: it builds
// the same pipeline configuration a primary would, but fills it from
// the primary's shipped log instead of client ingest, and serves the
// read-only API.
func runFollower(o options, cfg server.Config) error {
	logger := cfg.Logger
	node := *cfg.Node
	node.Role = "follower"
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		Primary:       []string{o.follow},
		Stream:        cfg.Stream,
		StoreCapacity: cfg.StoreCapacity,
		Distance:      cfg.Distance,
		// A promoted follower turns -snapshot into its own durability
		// root: it quarantines any stale WAL there and starts logging a
		// fresh generation.
		PromoteDir: o.snapshot,
		// Followers compact evicted windows into their own segment tier;
		// the deterministic segment bytes match the primary's bit for bit.
		SegmentDir:    o.segments,
		SegmentRetain: o.segRetain,
		Node:          &node,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	f.Start()
	// FollowerHandler adds GET /v1/follower/status and POST /v1/promote
	// on top of the replica's read API, so an operator or the router's
	// prober can fail this node over.
	runErr := daemon.Serve(context.Background(), o.addr, o.debugAddr, f.FollowerHandler(), logger, func(base string) {
		logger.Info(fmt.Sprintf("sigserverd: following %s on %s", o.follow, base))
	})
	f.Stop()
	if st := f.Stats(); st.Promoted {
		// The node took writes after promotion; give its WAL and
		// snapshot the same clean shutdown a primary gets.
		if srv := f.Server(); srv != nil {
			if err := srv.Shutdown(); err != nil && runErr == nil {
				runErr = err
			}
		}
		logger.Info("sigserverd: promoted follower stopped", "gen", st.Gen, "applied", st.AppliedRecords)
	} else if st.Fatal != "" && runErr == nil {
		runErr = errors.New(st.Fatal)
	} else {
		logger.Info("sigserverd: follower stopped", "gen", st.Gen, "applied", st.AppliedRecords, "caught_up", st.CaughtUp)
	}
	return runErr
}

func replayConfig(o options) datagen.EnterpriseConfig {
	gcfg := datagen.DefaultEnterpriseConfig(replaySeed)
	gcfg.LocalHosts = o.replayHosts
	gcfg.ExternalHosts = max(8*o.replayHosts, 200)
	gcfg.Windows = o.replayWindows
	gcfg.MultiusageIndividuals = min(gcfg.MultiusageIndividuals, o.replayHosts/15)
	return gcfg
}

// replay generates a synthetic enterprise capture and pushes it through
// the daemon's own HTTP ingest path, then holds the flow counters to
// what it sent — a self-test of the whole stack, not a measurement:
// rates come from the benchmark harness (bench/, BENCHMARK.json). It
// doubles as the observability smoke test: the Prometheus rendering of
// /metrics must parse with the expected histogram families present,
// and /v1/traces must have archived the ingest traces.
func replay(o options, base string, logger *slog.Logger) error {
	gcfg := replayConfig(o)
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		return err
	}
	c := server.NewClient(base)
	logger.Info(fmt.Sprintf("replay: %d records, %d local hosts, %d windows",
		len(data.Records), gcfg.LocalHosts, gcfg.Windows))

	accepted, rejected, windows := 0, 0, 0
	for i := 0; i < len(data.Records); i += replayBatch {
		end := min(i+replayBatch, len(data.Records))
		res, err := c.Ingest(data.Records[i:end])
		if err != nil {
			return err
		}
		accepted += res.Accepted
		rejected += res.Rejected
		windows += res.WindowsClosed
	}
	logger.Info(fmt.Sprintf("replay: ingested %d records (%d rejected), %d windows closed",
		accepted, rejected, windows))

	// Metrics parses the exposition: a malformed body fails here.
	fams, err := c.Metrics()
	if err != nil {
		return err
	}
	m := obs.Totals(fams)
	for _, k := range []string{"flows_received", "flows_accepted", "windows_closed", "http_requests_total"} {
		logger.Info(fmt.Sprintf("replay: metric %s = %d", k, m[k]))
	}
	if m["flows_received"] != int64(len(data.Records)) {
		return fmt.Errorf("replay: server received %d of %d records", m["flows_received"], len(data.Records))
	}
	if m["flows_accepted"]+m["flows_dropped"]+m["flows_rejected"] != m["flows_received"] {
		return fmt.Errorf("replay: inconsistent flow counters: %v", m)
	}
	return obsSmoke(c, fams, logger)
}

// obsSmoke validates the observability surface after a replay: the
// exposition carries the serving stack's latency histograms, and the
// trace ring holds the replay's ingest traces.
func obsSmoke(c *server.Client, fams []obs.Family, logger *slog.Logger) error {
	types := make(map[string]string, len(fams))
	histograms := 0
	for _, f := range fams {
		types[f.Name] = f.Type
		if f.Type == "histogram" {
			histograms++
		}
		if f.Name == "http_route_seconds" {
			h := f.Histogram()
			logger.Info(fmt.Sprintf("replay: metric http_route_seconds sum = %.6fs, p99 = %.6fs", h.Sum, h.Quantile(0.99)))
		}
	}
	for _, name := range []string{"http_route_seconds", "wal_fsync_seconds",
		"store_snapshot_save_seconds", "pipeline_window_close_seconds"} {
		if types[name] != "histogram" {
			return fmt.Errorf("replay: prom family %s is %q, want histogram", name, types[name])
		}
	}
	logger.Info("replay: prom exposition valid",
		"families", len(fams), "histograms", histograms)

	traces, err := c.Traces(1)
	if err != nil {
		return err
	}
	if traces.Total == 0 || len(traces.Traces) == 0 {
		return fmt.Errorf("replay: no traces archived (total %d)", traces.Total)
	}
	t := traces.Traces[0]
	logger.Info("replay: trace fetched",
		"trace", t.ID, "op", t.Name, "spans", len(t.Spans), "duration_micros", t.DurationMicros)
	return nil
}
