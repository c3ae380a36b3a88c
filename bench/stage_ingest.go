package main

import (
	"fmt"
	"path/filepath"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/segment"
	"graphsig/internal/server"
)

// smallBatchSize is the records per POST of the small-batch phase, where
// the per-batch cost (HTTP round trip, WAL sync) outweighs the records.
const smallBatchSize = 100

// ingestRun is what one closed-loop ingest of a batch list observed.
type ingestRun struct {
	acks, closes samples // batch latencies without and with a window close
	records      int     // records accepted
	wall         time.Duration
}

// sendFunc delivers one batch: a client's IngestBatch, or the server's
// own when a probe leaves HTTP out.
type sendFunc func(batchID string, batch []netflow.Record) (server.IngestResult, error)

// ingestClosedLoop sends the batches one after another from one client
// and checks that every generated record was accepted.
func (b *bench) ingestClosedLoop(span, idPrefix string, batches [][]netflow.Record, send sendFunc) (ingestRun, error) {
	var run ingestRun
	start := time.Now()
	for i, batch := range batches {
		var res server.IngestResult
		var err error
		d := b.rec.timed(span, 0, func() { res, err = send(fmt.Sprintf("%s-%06d", idPrefix, i), batch) })
		if err != nil {
			return run, fmt.Errorf("%s batch %d: %w", span, i, err)
		}
		b.rep.op(res.Accepted == len(batch) && res.Rejected == 0 && res.Dropped == 0,
			"%s batch %d: accepted %d of %d generated records (rejected %d, dropped %d)", span, i, res.Accepted, len(batch), res.Rejected, res.Dropped)
		run.records += res.Accepted
		if res.WindowsClosed > 0 {
			run.closes.add(d)
		} else {
			run.acks.add(d)
		}
	}
	run.wall = time.Since(start)
	return run, nil
}

// ingestStage drives one node with every durable layer on. Each round
// it ingests roundWindows windows (in bulk batches but for the tail,
// which goes in small ones) and then crashes and restarts the node with
// the last window still open in the WAL.
type ingestStage struct {
	b     *bench
	env   *environment
	n     *node
	cur   cursor
	acks  samples // every bulk batch of the measured rounds that closed no window
	syncs uint64  // WAL syncs during the measured small-batch slices

	diskBytes   int64 // bytes under the node's directory after round minRounds
	diskRecords int   // records of the windows those bytes hold

	// the last round's inputs and observations, for the layer probes
	lastBulk  [][]netflow.Record
	lastRun   ingestRun
	lastSmall ingestRun
}

func newIngestStage(b *bench, env *environment) *ingestStage {
	return &ingestStage{b: b, env: env, n: env.durable, cur: cursor{d: b.ds, window: b.sz.prefillWindows()}}
}

func (s *ingestStage) round(r int) error {
	b := s.b
	first := s.cur.window
	records := s.cur.take(b.ds.windowsLen(first, b.sz.roundWindows))
	last := s.cur.window - 1 // stays open: nothing of the next window has been sent
	tail := b.sz.smallBatches * smallBatchSize
	bulk, small := chunk(records[:len(records)-tail], batchSize), chunk(records[len(records)-tail:], smallBatchSize)

	run, err := b.ingestClosedLoop("client.ingest", fmt.Sprintf("bulk%d", r), bulk, s.n.cl.IngestBatch)
	if err != nil {
		return err
	}
	b.rep.op(len(run.closes) == b.sz.roundWindows, "round %d closed %d windows in its bulk slice, want %d", r, len(run.closes), b.sz.roundWindows)
	slowdown := b.slowdown()
	b.record(slowdown, "ingest_records_per_s", float64(run.records)/run.wall.Seconds(), run.records)
	b.record(slowdown, "window_close_p50_ms", run.closes.median(), len(run.closes))
	if !b.warm {
		s.acks = pool(s.acks, run.acks)
	}

	// The small batches end the round's last window; none closes one.
	syncs := s.n.srv.Registry().Histogram("wal_fsync_seconds", "")
	syncs0 := syncs.Count()
	smallRun, err := b.ingestClosedLoop("client.ingest_small", fmt.Sprintf("small%d", r), small, s.n.cl.IngestBatch)
	if err != nil {
		return err
	}
	b.rep.op(len(smallRun.closes) == 0, "round %d closed %d windows in its small-batch slice", r, len(smallRun.closes))
	b.observe("ingest_small_batch_records_per_s", float64(smallRun.records)/smallRun.wall.Seconds(), len(small))
	if !b.warm {
		s.syncs += syncs.Count() - syncs0
	}
	s.lastBulk, s.lastRun, s.lastSmall = bulk, run, smallRun

	// Crash with the open window's records only in the WAL, and restart;
	// a restart changes nothing on disk, so it can be repeated.
	segFiles, err := segment.List(s.n.cfg.SegmentDir)
	if err != nil {
		return err
	}
	pending := b.ds.windowLen(last)
	var restarts samples
	for i := 0; i < b.sz.restarts; i++ {
		s.n.crash()
		var srv *server.Server
		restarts.add(b.rec.timed("server.restart", 0, func() { srv, err = server.New(s.n.cfg) }))
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		s.n = serve(s.n.cfg, srv)
		s.env.durable = s.n // so that closing the environment stops the live node
		rc := srv.Recovery()
		b.rep.op(rc.SnapshotRestored && rc.WALRecords == pending && rc.WALRejected == 0 && rc.SegmentsAttached == len(segFiles) && len(segFiles) == s.n.cfg.SegmentRetain,
			"round %d restart %d recovered snapshot=%v, %d WAL records (open window holds %d, %d rejected), %d segments (%d on disk, %d retained)",
			r, i, rc.SnapshotRestored, rc.WALRecords, pending, rc.WALRejected, rc.SegmentsAttached, len(segFiles), s.n.cfg.SegmentRetain)
	}
	b.observe("restart_s", restarts.median()/1000, len(restarts))

	// Disk use at the end of a round: the snapshot of the ring, the
	// retained segments and the open window in the WAL, over the records
	// of exactly those windows. Which base windows they are turns with
	// the round, so one fixed round is read.
	if r == minRounds {
		// Snapshot, WAL and segments all live under the node's directory.
		if s.diskBytes, err = dirBytes(filepath.Dir(s.n.cfg.SnapshotDir)); err != nil {
			return err
		}
		held := b.sz.prefillWindows()
		s.diskRecords = b.ds.windowsLen(s.cur.window-held, held)
	}
	return nil
}

func (s *ingestStage) finish() error {
	b := s.b
	b.reportOverRounds("ingest_records_per_s", "window_close_p50_ms", "ingest_small_batch_records_per_s", "restart_s")
	bytesPerRecord := float64(s.diskBytes) / float64(s.diskRecords)
	b.rep.endToEnd("disk_bytes_per_record", bytesPerRecord, bytesPerRecord, s.diskRecords)
	if b.rec != nil {
		return s.layers()
	}
	return nil
}
