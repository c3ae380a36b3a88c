package main

import (
	"fmt"
	"sync"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// mixedRun is what one mixed slice observed: a paced writer beside one
// closed-loop reader.
type mixedRun struct {
	searches samples // reader latencies
	acks     samples // writer latencies, from each batch's due time
	late     samples // how far behind its schedule the writer sent each batch
	wall     time.Duration
}

// pacedIngest posts the batches on a fixed schedule, one every interval,
// from one writer that never drops a batch: a batch that cannot go out
// when due goes out as soon as the previous one returns, and its latency
// still counts from when it was due.
func (b *bench) pacedIngest(cl *server.Client, idPrefix string, batches [][]netflow.Record, interval time.Duration, run *mixedRun) error {
	start := time.Now()
	for i, batch := range batches {
		due := dueTime(start, interval, i)
		time.Sleep(time.Until(due))
		run.late.add(time.Since(due))
		var res server.IngestResult
		var err error
		b.rec.timed("client.routed_ingest_paced", 0, func() { res, err = cl.IngestBatch(fmt.Sprintf("%s-%06d", idPrefix, i), batch) })
		if err != nil {
			return fmt.Errorf("paced ingest batch %d: %w", i, err)
		}
		run.acks.add(time.Since(due))
		b.rep.op(res.Accepted == len(batch), "paced batch %d: accepted %d of %d records", i, res.Accepted, len(batch))
	}
	return nil
}

// clusterStage drives a router over two durable replicating shards and a
// follower of shard 0. Each round it ingests roundWindows windows
// through the router, first closed-loop with no readers, then, across
// the window boundary, paced beside one reader; then it reads with
// nothing else going on.
type clusterStage struct {
	b      *bench
	t      *topology
	ingest *ingestStage // its node, fed the same stream, is the single node routed answers must equal
	cur    cursor
	reader *server.Client // the mixed slice's reader has its own connection

	mixed   mixedRun // the measured rounds' mixed slices, pooled
	catchup samples  // follower catch-up after each mixed slice, seconds
	quiet   samples  // every quiescent routed latency of the measured rounds

	// the last round's inputs and observations, for the layer probes
	lastBulk [][]netflow.Record
	lastRun  ingestRun
}

func newClusterStage(b *bench, env *environment, ingest *ingestStage) *clusterStage {
	// fillCluster left the cluster half a mixed slice into the window
	// the rounds start with.
	cur := cursor{d: b.ds, window: b.sz.prefillWindows()}
	cur.take(b.sz.mixedRecords() / 2)
	return &clusterStage{b: b, t: env.topo, ingest: ingest, cur: cur, reader: newClient(env.topo.rts.URL)}
}

func (s *clusterStage) round(r int) error {
	b, sz, t := s.b, s.b.sz, s.t
	// Start and end sit the same distance into a window, so the round
	// consumes exactly its windows' worth of records.
	total := b.ds.windowsLen(s.cur.window, sz.roundWindows)
	bulk := chunk(s.cur.take(total-sz.mixedRecords()), batchSize)
	paced := chunk(s.cur.take(sz.mixedRecords()), batchSize)

	// Closed-loop routed ingest, no readers.
	run, err := b.ingestClosedLoop("client.routed_ingest", fmt.Sprintf("routed%d", r), bulk, t.cl.IngestBatch)
	if err != nil {
		return err
	}
	b.observe("routed_ingest_records_per_s", float64(run.records)/run.wall.Seconds(), run.records)
	s.lastBulk, s.lastRun = bulk, run
	// The follower replays shard 0's log on the cores the next slice is
	// measured on; let it finish first so every slice meets it idle.
	_, err = s.t.followerCaughtUp()
	b.rep.op(err == nil, "after round %d's routed ingest: %v", r, err)

	// Reads beside writes. The writer offers a fixed rate, the same on
	// every commit, so the reader meets the same write load whatever
	// the ingest path costs; both shards close a window mid-slice. The
	// reader's completed searches per second take in every stall a
	// write imposes on it.
	interval := time.Duration(float64(time.Second) * batchSize / float64(sz.mixedRate))
	labels := b.ds.queryLabels(b.seed, fmt.Sprintf("mixed%d", r), 4096)
	var mixed mixedRun
	var wg sync.WaitGroup
	var writeErr, readErr error
	stop := make(chan struct{})
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		writeErr = b.pacedIngest(t.cl, fmt.Sprintf("mixed%d", r), paced, interval, &mixed)
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			label := labels[i%len(labels)]
			var resp server.SearchResponse
			d := b.rec.timed("client.routed_search_mixed", 0, func() {
				resp, readErr = s.reader.Search(server.SearchRequest{Label: label, K: searchK, LastWindows: ringCapacity})
			})
			if readErr != nil {
				return
			}
			mixed.searches.add(d)
			b.rep.op(len(resp.Hits) == searchK, "mixed search %q returned %d hits", label, len(resp.Hits))
		}
	}()
	wg.Wait()
	mixed.wall = time.Since(start)
	if writeErr != nil {
		return writeErr
	}
	if readErr != nil {
		return fmt.Errorf("mixed search: %w", readErr)
	}
	b.observe("mixed_search_queries_per_s", float64(len(mixed.searches))/mixed.wall.Seconds(), len(mixed.searches))
	catchup, err := s.t.followerCaughtUp()
	b.rep.op(err == nil, "after round %d's mixed slice: %v", r, err)

	// Nothing is written.
	quiet, err := b.searchSlice(t.cl, "client.routed_search", b.ds.queryLabels(b.seed, fmt.Sprintf("routed%d", r), sz.routedSearches), ringCapacity, 0, nil)
	if err != nil {
		return err
	}
	b.observe("routed_search_p50_ms", quiet.median(), len(quiet))
	if !b.warm {
		s.mixed.searches = pool(s.mixed.searches, mixed.searches)
		s.mixed.acks = pool(s.mixed.acks, mixed.acks)
		s.mixed.late = pool(s.mixed.late, mixed.late)
		s.catchup = append(s.catchup, catchup.Seconds())
		s.quiet = pool(s.quiet, quiet)
	}
	return nil
}

func (s *clusterStage) finish() error {
	b := s.b
	b.reportOverRounds("routed_ingest_records_per_s", "mixed_search_queries_per_s", "routed_search_p50_ms")

	// The ingest stage's node was fed the same stream through one node
	// (and crashed and recovered every round). Once its open window is
	// closed it holds the windows the shards hold between them, and a
	// routed answer must equal its answer bit for bit.
	single := s.ingest.n.srv
	if _, err := single.Flush(); err != nil {
		return err
	}
	_, newest, _ := single.Store().WindowRange()
	for i, shard := range s.t.shards {
		_, got, _ := shard.srv.Store().WindowRange()
		b.rep.op(got == newest, "shard %d's newest window is %d, the single node's %d", i, got, newest)
	}
	want := labelSearch(single.Store(), ringCapacity)
	if _, err := b.searchSlice(s.t.cl, "client.routed_search_checked", b.ds.queryLabels(b.seed, "routed-check", 40), ringCapacity, 1, want); err != nil {
		return err
	}
	if b.rec != nil {
		return s.layers()
	}
	return nil
}
