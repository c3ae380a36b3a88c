// Command sigrouterd fronts a fleet of sigserverd shards with the same
// v1 API a single node serves: it partitions ingest batches across the
// shards by consistent hashing of source labels, scatter-gathers the
// read paths, and merges the answers bit-identically to a single-node
// run over the union of the data.
//
//	sigrouterd -addr :8780 \
//	    -shard http://10.0.0.1:8787 \
//	    -shard http://10.0.0.2:8787
//
// Each -shard flag names one shard by its primary's address; its
// replicas go in -follower, the router's one failover path. Shard
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
	"os"
	"strings"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/daemon"
)

// shardList collects repeated -shard flags, each one shard's primary
// address.
type shardList [][]string

func (s *shardList) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardList) Set(v string) error {
	a := strings.TrimSpace(v)
	switch {
	case a == "":
		return errors.New("empty shard address")
	case strings.Contains(a, ","):
		return fmt.Errorf("shard %q: one primary address per -shard; list its replicas in -follower", v)
	}
	*s = append(*s, []string{a})
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

	probeInterval time.Duration
	autoPromote   time.Duration

	debugAddr string
	slowOp    time.Duration
}

// flags defines the router's command line, binding each flag to o.
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("sigrouterd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8780", "listen address")
	fs.Var(&o.shards, "shard", "shard primary address (repeat once per shard, in shard-index order; replicas go in -follower)")
	fs.Var(&o.followers, "follower", "follower addresses for one shard, comma-separated (repeat in shard-index order; \"\" for a shard with none)")
	fs.DurationVar(&o.probeInterval, "probe-interval", cluster.DefaultProbeInterval, "health probe interval (with followers configured)")
	fs.DurationVar(&o.autoPromote, "auto-promote", 0, "promote a shard's freshest follower after its primary stays down this long (0 = operator-driven only)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof debug listen address (empty = disabled)")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log routed spans at or above this duration (0 = disabled)")
	return fs
}

func main() {
	var o options
	_ = flags(&o).Parse(os.Args[1:])
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sigrouterd:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	logger := slog.New(slog.NewTextHandler(out, nil))
	cfg := cluster.Config{
		Shards:    o.shards,
		Followers: o.followers,
		Logger:    logger,
		SlowOp:    o.slowOp,
	}
	if len(o.followers) > 0 {
		cfg.Health = &cluster.HealthConfig{
			Interval:    o.probeInterval,
			AutoPromote: o.autoPromote,
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
	return daemon.Serve(context.Background(), o.addr, o.debugAddr, rt.Handler(), logger, func(base string) {
		id := rt.Identity()
		logger.Info("sigrouterd: serving on "+base, "shards", id.Shards, "ring_epoch", id.RingEpoch)
	})
}
