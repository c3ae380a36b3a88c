// Command sigrouterd fronts a fleet of sigserverd shards with the same
// v1 API a single node serves: it partitions ingest batches across the
// shards by consistent hashing of source labels, scatter-gathers the
// read paths, and merges the answers bit-identically to a single-node
// run over the union of the data.
//
//	sigrouterd -addr :8780 \
//	    -shard http://10.0.0.1:8787,http://10.0.0.1:8788 \
//	    -shard http://10.0.0.2:8787
//
// Each -shard flag names one shard; a comma-separated list gives that
// shard's seed addresses (the router fails over between them). Shard
// order must be stable across router restarts and must match the
// -shard-index each sigserverd was started with — the ring is the
// contract, and /readyz exposes its epoch so mismatches are visible.
//
// Fault tolerance: each -follower flag lists one shard's WAL-tailing
// replicas (repeat in shard-index order, "" for a shard with none).
// With followers configured the router runs a health prober; while a
// primary is down, reads fail over to the freshest follower (responses
// carry stale_shards), and with -auto-promote set the router promotes
// that follower to read-write after the primary stays down that long.
//
//	sigrouterd -addr :8780 \
//	    -shard http://10.0.0.1:8787 -follower http://10.0.1.1:8789 \
//	    -shard http://10.0.0.2:8787 -follower http://10.0.1.2:8789 \
//	    -auto-promote 30s
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
	"syscall"
	"time"

	"graphsig/internal/cluster"
)

// shardList collects repeated -shard flags, each a comma-separated
// seed-address list for one shard.
type shardList [][]string

func (s *shardList) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardList) Set(v string) error {
	seeds := strings.Split(v, ",")
	for i, a := range seeds {
		seeds[i] = strings.TrimSpace(a)
		if seeds[i] == "" {
			return fmt.Errorf("empty address in shard %q", v)
		}
	}
	*s = append(*s, seeds)
	return nil
}

// followerList collects repeated -follower flags, each a
// comma-separated replica-address list for one shard ("" = none).
type followerList [][]string

func (s *followerList) String() string { return fmt.Sprint([][]string(*s)) }

func (s *followerList) Set(v string) error {
	var addrs []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	*s = append(*s, addrs)
	return nil
}

type options struct {
	addr      string
	shards    shardList
	followers followerList
	vnodes    int
	timeout   time.Duration
	retries   int

	probeInterval time.Duration
	probeCooldown time.Duration
	probeFails    int
	autoPromote   time.Duration

	debugAddr string
	slowOp    time.Duration
	traceCap  int
}

func main() {
	var o options
	fs := flag.NewFlagSet("sigrouterd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8780", "listen address")
	fs.Var(&o.shards, "shard", "shard seed addresses, comma-separated (repeat once per shard, in shard-index order)")
	fs.Var(&o.followers, "follower", "follower addresses for one shard, comma-separated (repeat in shard-index order; \"\" for a shard with none)")
	fs.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per shard on the hash ring (0 = default; must match the shards)")
	fs.DurationVar(&o.timeout, "timeout", cluster.DefaultScatterTimeout, "per-shard deadline for scatter-gather reads")
	fs.IntVar(&o.retries, "retries", 0, "extra attempts per shard call (0 = client default)")
	fs.DurationVar(&o.probeInterval, "probe-interval", cluster.DefaultProbeInterval, "health probe interval (with followers configured)")
	fs.DurationVar(&o.probeCooldown, "probe-cooldown", cluster.DefaultProbeCooldown, "re-probe spacing for nodes marked down")
	fs.IntVar(&o.probeFails, "probe-fail-threshold", cluster.DefaultFailThreshold, "consecutive probe failures before a node is marked down")
	fs.DurationVar(&o.autoPromote, "auto-promote", 0, "promote a shard's freshest follower after its primary stays down this long (0 = operator-driven only)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof debug listen address (empty = disabled)")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log routed spans at or above this duration (0 = disabled)")
	fs.IntVar(&o.traceCap, "trace-capacity", 0, "recent traces retained for GET /v1/traces (0 = default)")
	_ = fs.Parse(os.Args[1:])

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sigrouterd:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger := slog.New(slog.NewTextHandler(out, nil))

	cfg := cluster.Config{
		Shards:        o.shards,
		Followers:     o.followers,
		VNodes:        o.vnodes,
		Timeout:       o.timeout,
		MaxRetries:    o.retries,
		Logger:        logger,
		SlowOp:        o.slowOp,
		TraceCapacity: o.traceCap,
	}
	if len(o.followers) > 0 {
		cfg.Health = &cluster.HealthConfig{
			Interval:      o.probeInterval,
			Cooldown:      o.probeCooldown,
			FailThreshold: o.probeFails,
			AutoPromote:   o.autoPromote,
		}
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	if p := rt.Prober(); p != nil {
		p.Start()
		defer p.Stop()
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
		logger.Info("sigrouterd: pprof debug server on http://" + dln.Addr().String() + "/debug/pprof/")
	}
	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	id := rt.Identity()
	logger.Info(fmt.Sprintf("sigrouterd: serving on http://%s", ln.Addr()),
		"shards", id.Shards, "ring_epoch", id.RingEpoch)

	var runErr error
	select {
	case <-ctx.Done():
		logger.Info("sigrouterd: signal received, shutting down")
	case runErr = <-errc:
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}
