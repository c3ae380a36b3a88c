package main

import (
	"fmt"
	"path/filepath"

	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// layers separates what the router adds from what its shards cost when
// asked directly.
func (s *clusterStage) layers() error {
	b, t := s.b, s.t
	ring := t.router.Ring()
	root := b.rec.begin("cluster.layers", 0)
	defer b.rec.end(root)
	labels := b.ds.queryLabels(b.seed, "routed-probe", probeLabels)

	// Each label asked of the shard that owns it, with no router.
	direct := make([]samples, len(t.shards))
	for _, label := range labels {
		shard := ring.Shard(label)
		var err error
		direct[shard].add(b.rec.timed(fmt.Sprintf("client.shard%d_search", shard), root, func() {
			_, err = t.shards[shard].cl.Search(server.SearchRequest{Label: label, K: searchK, LastWindows: ringCapacity})
		}))
		if err != nil {
			return fmt.Errorf("direct shard search %q: %w", label, err)
		}
	}
	slowest := 0.0
	for _, lat := range direct {
		if len(lat) > 0 {
			slowest = max(slowest, lat.median())
		}
	}
	b.rep.layer("cluster.router_search_overhead_ms", s.quiet.median()-slowest, "ms", len(labels))

	// Requests the shards see per routed search, counted exactly.
	requests := func() int64 {
		var n int64
		for _, shard := range t.shards {
			n += shard.srv.Registry().Snapshot()["http_requests_total"]
		}
		return n
	}
	before := requests()
	if _, err := b.searchSlice(t.cl, "client.routed_search_counted", labels, ringCapacity, 0, nil); err != nil {
		return err
	}
	b.rep.layer("cluster.shard_calls_per_search", float64(requests()-before)/float64(len(labels)), "count", len(labels))

	// The last round's bulk slice split the way the router splits it and
	// sent to two fresh shards directly, one sub-batch after the other.
	// The window before the slice goes first, so that the fresh shards
	// have met every label, as the routed ones had.
	fresh := make([]*node, len(t.shards))
	for i := range fresh {
		cfg := durableConfig(b.ds, filepath.Join(b.dir, "cluster-layers", fmt.Sprintf("shard%d", i)))
		cfg.Replicate = true
		n, err := bootNode(cfg)
		if err != nil {
			return err
		}
		defer n.crash()
		fresh[i] = n
	}
	split := func(batch []netflow.Record) [][]netflow.Record {
		parts := make([][]netflow.Record, len(fresh))
		for _, r := range batch {
			shard := ring.Shard(r.Src)
			parts[shard] = append(parts[shard], r)
		}
		return parts
	}
	first := b.ds.windowOf(s.lastBulk[0][0])
	for shard, part := range split(b.ds.stream(first-1, 1)) {
		if err := ingestAll(fresh[shard].srv, part); err != nil {
			return err
		}
	}
	var directAcks samples
	perShard := make([]int, len(fresh))
	for i, batch := range s.lastBulk {
		for shard, part := range split(batch) {
			if len(part) == 0 {
				continue
			}
			var res server.IngestResult
			var err error
			d := b.rec.timed(fmt.Sprintf("client.shard%d_ingest", shard), root, func() {
				res, err = fresh[shard].cl.IngestBatch(fmt.Sprintf("direct-%06d-%d", i, shard), part)
			})
			if err != nil {
				return fmt.Errorf("direct shard ingest: %w", err)
			}
			perShard[shard] += len(part)
			if res.WindowsClosed == 0 { // closes differ: the fresh shards' rings are empty
				directAcks.add(d)
			}
		}
	}
	b.rep.layer("cluster.ingest_overhead_frac", 1-directAcks.sum()/s.lastRun.acks.sum(), "ratio", len(s.lastRun.acks))
	most, total := 0, 0
	for _, n := range perShard {
		most = max(most, n)
		total += n
	}
	b.rep.layer("cluster.shard_skew", float64(most)*float64(len(perShard))/float64(total), "ratio", total)

	b.rep.layer("cluster.follower_catchup_s", s.catchup.median(), "s", len(s.catchup))
	b.rep.layer("cluster.mixed_search_p50_ms", s.mixed.searches.median(), "ms", len(s.mixed.searches))
	b.rep.layer("cluster.mixed_search_p90_ms", s.mixed.searches.tail(0.90), "ms", len(s.mixed.searches))
	b.rep.layer("cluster.mixed_ingest_ack_p50_ms", s.mixed.acks.median(), "ms", len(s.mixed.acks))
	b.rep.layer("cluster.generator_late_ms", s.mixed.late.tail(0.90), "ms", len(s.mixed.late))
	return nil
}
