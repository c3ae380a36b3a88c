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
//	POST /v1/flows              batch flow ingestion
//	GET  /v1/signatures/{label} per-label signature history
//	POST /v1/search             top-k nearest signatures
//	POST /v1/watchlist          archive a label under an individual
//	GET  /v1/watchlist/hits     recorded reappearance hits
//	GET  /v1/anomalies          behaviour changes, last two windows
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition
//
// On SIGINT/SIGTERM the daemon drains HTTP, flushes the partial
// window, and — when -snapshot is set — saves the store so a restart
// resumes with its archive.
//
// With -replay the daemon feeds a synthetic datagen enterprise
// workload to itself through the real HTTP ingest path, prints a
// throughput summary and the final counters, and exits: a self-
// benchmark of the full serving stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux, served on -debug-addr
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

type options struct {
	addr         string
	window       time.Duration
	origin       string
	localPrefix  string
	scheme       string
	k            int
	tcpOnly      bool
	distance     string
	capacity     int
	watchDist    float64
	snapshot     string
	segments     string
	segRetain    int
	snapInterval time.Duration
	noWAL        bool
	maxInFlight  int
	sketchWidth  int
	sketchDepth  int
	sketchCand   int
	debugAddr    string
	slowOp       time.Duration

	shardIndex int
	shardCount int
	vnodes     int
	replicate  bool
	walRetain  int
	follow     string
	followPoll time.Duration

	replay        bool
	replaySeed    int64
	replayHosts   int
	replayWindows int
	replayBatch   int
}

func main() {
	var o options
	fs := flag.NewFlagSet("sigserverd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8787", "listen address")
	fs.DurationVar(&o.window, "window", 5*24*time.Hour, "aggregation window size")
	fs.StringVar(&o.origin, "origin", "", "window origin (RFC3339; empty = first record)")
	fs.StringVar(&o.localPrefix, "local-prefix", "10.", "label prefix marking local hosts")
	fs.StringVar(&o.scheme, "scheme", "tt", "streaming signature scheme (tt or ut)")
	fs.IntVar(&o.k, "k", 10, "signature length")
	fs.BoolVar(&o.tcpOnly, "tcp-only", true, "drop non-TCP records")
	fs.StringVar(&o.distance, "distance", "jaccard", "default distance (jaccard, dice, sdice, shel, ...)")
	fs.IntVar(&o.capacity, "capacity", 16, "windows retained in the store")
	fs.Float64Var(&o.watchDist, "watch-maxdist", 0.5, "watchlist screening threshold")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot directory (empty = no persistence)")
	fs.StringVar(&o.segments, "segment-dir", "", "cold-tier segment directory: ring evictions compact into immutable on-disk segments instead of being dropped (empty = bounded in-memory archive only)")
	fs.IntVar(&o.segRetain, "segment-retain", 0, "segment files kept on disk; oldest pruned beyond this (0 = keep all)")
	fs.DurationVar(&o.snapInterval, "snapshot-interval", time.Minute, "periodic background snapshot interval (0 = only at window close/shutdown)")
	fs.BoolVar(&o.noWAL, "no-wal", false, "disable the write-ahead log beside the snapshot directory")
	fs.IntVar(&o.maxInFlight, "max-inflight", 8, "concurrent ingest batches before shedding with 429 (0 = unlimited)")
	fs.IntVar(&o.sketchWidth, "sketch-width", 4096, "Count-Min width per source")
	fs.IntVar(&o.sketchDepth, "sketch-depth", 5, "Count-Min depth per source")
	fs.IntVar(&o.sketchCand, "sketch-candidates", 256, "tracked heavy neighbours per source")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	fs.DurationVar(&o.slowOp, "slow-op", 500*time.Millisecond, "traced spans over this duration log a slow-operation warning (0 = disabled)")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "this node's shard index in a cluster (with -shard-count)")
	fs.IntVar(&o.shardCount, "shard-count", 0, "total shards in the cluster (0 = single-node)")
	fs.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per shard on the hash ring (0 = default; must match the router)")
	fs.BoolVar(&o.replicate, "replicate", false, "serve the WAL to read replicas over /v1/replication (requires -snapshot)")
	fs.IntVar(&o.walRetain, "wal-retain", server.DefaultReplicaRetain, "sealed WAL segments kept for replica catch-up (-1 = all)")
	fs.StringVar(&o.follow, "follow", "", "run as a read replica tailing this primary (comma-separated seed addresses)")
	fs.DurationVar(&o.followPoll, "follow-poll", 0, "replication poll interval when caught up (0 = default)")
	fs.BoolVar(&o.replay, "replay", false, "self-test: replay a synthetic workload over HTTP, check the counters and the observability surface, then exit")
	fs.Int64Var(&o.replaySeed, "replay-seed", 1, "replay workload seed")
	fs.IntVar(&o.replayHosts, "replay-hosts", 300, "replay local hosts")
	fs.IntVar(&o.replayWindows, "replay-windows", 6, "replay windows")
	fs.IntVar(&o.replayBatch, "replay-batch", 2000, "replay records per POST")
	_ = fs.Parse(os.Args[1:])

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
	scfg := stream.Config{
		WindowSize: o.window,
		Classify:   netflow.PrefixClassifier(o.localPrefix),
		TCPOnly:    o.tcpOnly,
		K:          o.k,
		Scheme:     o.scheme,
		Sketch: sketch.StreamConfig{
			Width:      o.sketchWidth,
			Depth:      o.sketchDepth,
			Candidates: o.sketchCand,
			Seed:       1,
		},
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
		WatchMaxDist:  &o.watchDist,
		SnapshotDir:   o.snapshot,
		SegmentDir:    o.segments,
		SegmentRetain: o.segRetain,
		DisableWAL:    o.noWAL,
		MaxInFlight:   o.maxInFlight,
		SlowOp:        o.slowOp,
		Node:          node,
		Replicate:     o.replicate,
		ReplicaRetain: o.walRetain,
	}, nil
}

// nodeIdentity derives this node's cluster identity for /readyz and
// metric labels. The ring epoch comes from the same ring construction
// the router uses, so a router/shard membership mismatch is visible by
// comparing epochs.
func nodeIdentity(o options) (*server.Identity, error) {
	role := "single"
	if o.replicate {
		role = "primary"
	}
	id := &server.Identity{Role: role, Shard: o.shardIndex}
	if o.shardCount > 0 {
		if o.shardIndex < 0 || o.shardIndex >= o.shardCount {
			return nil, fmt.Errorf("-shard-index %d out of range for -shard-count %d", o.shardIndex, o.shardCount)
		}
		ring, err := cluster.NewRing(o.shardCount, o.vnodes)
		if err != nil {
			return nil, err
		}
		id.Shards = o.shardCount
		id.RingEpoch = ring.Epoch()
	}
	return id, nil
}

func run(o options, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// All operational output is structured: one slog line per event,
	// with the server's slow-operation warnings (trace IDs included)
	// interleaved on the same handler.
	logger := slog.New(slog.NewTextHandler(out, nil))

	if o.follow != "" {
		return runFollower(ctx, o, logger)
	}

	cfg, err := serverConfig(o)
	if err != nil {
		return err
	}
	cfg.Logger = logger
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

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}

	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, nil) }()
		logger.Info("sigserverd: pprof debug server on http://" + dln.Addr().String() + "/debug/pprof/")
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Slowloris hardening: a client must finish its headers
		// promptly and cannot send unbounded ones. Body size is
		// bounded per handler via http.MaxBytesReader.
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Info(fmt.Sprintf("sigserverd: serving on http://%s", ln.Addr()),
		"window", cfg.Stream.WindowSize, "scheme", cfg.Stream.Scheme, "k", cfg.Stream.K)

	// Startup readiness probe through the real listener: the same check
	// a load balancer would run, logged so a misconfigured boot (e.g.
	// durability requested but WAL unopenable) is visible immediately.
	if ready, err := server.NewClient("http://" + ln.Addr().String()).Ready(); err != nil {
		logger.Warn("sigserverd: readiness probe failed", "err", err)
	} else {
		logger.Info("sigserverd: ready", "ready", ready.Ready)
	}

	// Periodic background snapshots: archived windows stay durable even
	// without a graceful shutdown (the WAL covers the open window).
	snapDone := make(chan struct{})
	var snapWG sync.WaitGroup
	if o.snapshot != "" && o.snapInterval > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(o.snapInterval)
			defer tick.Stop()
			for {
				select {
				case <-snapDone:
					return
				case <-tick.C:
					if err := srv.Snapshot(); err != nil {
						logger.Warn("sigserverd: periodic snapshot failed", "err", err)
					}
				}
			}
		}()
	}

	if o.replay {
		go func() {
			errc <- replay(o, "http://"+ln.Addr().String(), logger)
		}()
	}

	var runErr error
	select {
	case <-ctx.Done():
		logger.Info("sigserverd: signal received, shutting down")
	case runErr = <-errc:
	}

	close(snapDone)
	snapWG.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && runErr == nil {
		runErr = err
	}
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
func runFollower(ctx context.Context, o options, logger *slog.Logger) error {
	cfg, err := serverConfig(o)
	if err != nil {
		return err
	}
	node := &server.Identity{Role: "follower", Shard: o.shardIndex}
	if cfg.Node != nil {
		node.Shards = cfg.Node.Shards
		node.RingEpoch = cfg.Node.RingEpoch
	}
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		Primary:       strings.Split(o.follow, ","),
		Stream:        cfg.Stream,
		StoreCapacity: cfg.StoreCapacity,
		Distance:      cfg.Distance,
		WatchMaxDist:  cfg.WatchMaxDist,
		Poll:          o.followPoll,
		// A promoted follower turns -snapshot into its own durability
		// root: it quarantines any stale WAL there and starts logging a
		// fresh generation.
		PromoteDir: o.snapshot,
		// Followers compact evicted windows into their own segment tier;
		// the deterministic segment bytes match the primary's bit for bit.
		SegmentDir:    o.segments,
		SegmentRetain: o.segRetain,
		Node:          node,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		// FollowerHandler adds GET /v1/follower/status and POST
		// /v1/promote on top of the replica's read API, so an operator or
		// the router's prober can fail this node over.
		Handler:           f.FollowerHandler(),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	f.Start()
	logger.Info(fmt.Sprintf("sigserverd: following %s on http://%s", o.follow, ln.Addr()))

	var runErr error
	select {
	case <-ctx.Done():
		logger.Info("sigserverd: signal received, shutting down")
	case runErr = <-errc:
	}
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
		logger.Info("sigserverd: follower stopped",
			"gen", f.Stats().Gen, "applied", f.Stats().AppliedRecords, "caught_up", f.Stats().CaughtUp)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

func replayConfig(o options) datagen.EnterpriseConfig {
	gcfg := datagen.DefaultEnterpriseConfig(o.replaySeed)
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
	for i := 0; i < len(data.Records); i += o.replayBatch {
		end := min(i+o.replayBatch, len(data.Records))
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
