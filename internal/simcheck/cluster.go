package simcheck

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// startCluster boots cfg.Shards memory-only shard nodes behind a router
// — under Failover shard 0 durable and replicating to a follower — and
// makes the router the target: reads through its API, writes through
// its Ingest.
func (s *sim) startCluster() error {
	cfg := s.cfg
	rcfg := cluster.Config{Timeout: 30 * time.Second}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.serverConfig()
		if cfg.Failover && i == 0 {
			scfg.SnapshotDir = filepath.Join(cfg.Dir, "shard0")
			scfg.Replicate = true
		}
		srv, err := server.New(scfg)
		if err != nil {
			return fmt.Errorf("simcheck: shard %d: %w", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		s.stops = append(s.stops, srv.Abort, ts.Close)
		if i == 0 {
			s.shard0, s.kill = ts.URL, func() { ts.Close(); srv.Abort() }
		}
		rcfg.Shards = append(rcfg.Shards, []string{ts.URL})
	}
	if cfg.Failover {
		scfg := cfg.serverConfig()
		f, err := cluster.NewFollower(cluster.FollowerConfig{Primary: rcfg.Shards[0], Stream: scfg.Stream, StoreCapacity: scfg.StoreCapacity,
			WatchMaxDist: scfg.WatchMaxDist, Poll: 5 * time.Millisecond, ChunkBytes: 2048, PromoteDir: filepath.Join(cfg.Dir, "promoted")})
		if err != nil {
			return fmt.Errorf("simcheck: follower: %w", err)
		}
		f.Start()
		fts := httptest.NewServer(f.FollowerHandler())
		s.stops = append(s.stops, f.Stop, fts.Close)
		s.follower = f
		rcfg.Followers = make([][]string, cfg.Shards)
		rcfg.Followers[0] = []string{fts.URL}
		// An hour between probes: the schedule drives ProbeOnce.
		rcfg.Health = &cluster.HealthConfig{Interval: time.Hour, FailThreshold: 3, Cooldown: time.Millisecond, AutoPromote: time.Millisecond, Timeout: 5 * time.Second}
		rcfg.MaxRetries = -1 // a killed shard should fail fast, not backoff
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		return fmt.Errorf("simcheck: router: %w", err)
	}
	s.router, s.api = rt, rt
	s.ingest = func(id string, records []netflow.Record) (server.IngestResult, error) {
		res, err := rt.Ingest(context.Background(), id, records)
		return res.IngestResult, err
	}

	// One barrier label per shard, from the ring: window close is lazy
	// per shard, so a shard that saw no recent record sits in an old
	// window with its signatures unextracted until align moves it.
	for shard := 0; shard < cfg.Shards; shard++ {
		for i := 0; ; i++ {
			if label := fmt.Sprintf("barrier-%02d", i); rt.Ring().Shard(label) == shard {
				s.barriers = append(s.barriers, label)
				break
			}
		}
	}
	return nil
}

// align readies a router target for a read: it ingests one record per
// shard-owned barrier label at the current clock, so every shard's
// current window is the stream's and the windows archived anywhere are
// the windows the model archived. The barrier records are ordinary
// records to the model. A node needs no barrier.
func (s *sim) align() error {
	if s.router == nil {
		return nil
	}
	records := make([]netflow.Record, len(s.barriers))
	for i, label := range s.barriers {
		records[i] = netflow.Record{
			Src: label, Dst: "barrier-sink", Start: s.clock,
			Duration: time.Second, Sessions: 1, Bytes: 1, Packets: 1,
			Proto: netflow.TCP,
		}
	}
	id := s.nextID("barrier")
	s.note("barrier %s clock=%s", id, s.clock.Format("15:04:05"))
	res, err := s.ingest(id, records)
	if err != nil {
		return fmt.Errorf("simcheck: barrier %s: %w", id, err)
	}
	return s.checkIngested(id, records, res, noFault)
}

// failover kills shard 0's primary once its follower holds all it
// durably logged, walks the prober to Down, checks a read through the
// follower, lets auto-promotion restore writes, and replays the last
// batch sent before the kill: the dedup set must have survived.
func (s *sim) failover() error {
	if err := s.align(); err != nil {
		return err
	}
	s.note("failover: killing shard 0 primary")
	rs, err := server.NewClient(s.shard0).ReplicationStatus()
	if err != nil {
		return fmt.Errorf("simcheck: replication status: %w", err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := s.follower.Stats()
		if st.Fatal != "" {
			return fmt.Errorf("simcheck: follower died: %s", st.Fatal)
		}
		if st.Gen > rs.Gen || (st.Gen == rs.Gen && st.Offset >= rs.DurableSize) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simcheck: follower never reached (%d,%d): %+v", rs.Gen, rs.DurableSize, st)
		}
	}
	s.kill()
	p := s.router.Prober()
	for i := 0; i < 3; i++ {
		p.ProbeOnce()
	}

	// Nothing has been written since the barrier: a read of a shard-0
	// label must answer whole, through the follower, as the model does.
	i := slices.IndexFunc(s.labels, func(l string) bool {
		_, ok := s.model.archive.latestSignature(l)
		return ok && s.router.Ring().Shard(l) == 0
	})
	if i < 0 {
		return fmt.Errorf("simcheck: no label of shard 0 has a signature")
	}
	req := server.SearchRequest{Label: s.labels[i], K: 5, MaxDist: 1, Distance: "jaccard"}
	s.note("failover: search label=%s", req.Label)
	resp, err := s.api.Search(context.Background(), req)
	if err := s.checkSearch(req, resp.Hits, err, resp.Coverage); err != nil {
		return err
	}
	if st := resp.StaleShards; len(st) != 1 || st[0].Shard != 0 {
		return s.fail("failover search stale_shards %+v, want shard 0", st)
	}

	time.Sleep(5 * time.Millisecond) // the auto-promote grace period
	p.ProbeOnce()
	if !s.follower.Stats().Promoted {
		return fmt.Errorf("simcheck: follower not promoted after grace period")
	}
	s.note("failover: follower promoted")
	if len(s.batches) == 0 {
		return nil
	}
	last := s.batches[len(s.batches)-1]
	s.note("failover: dedup replay of %s", last.id)
	return s.retry(last, true)
}
