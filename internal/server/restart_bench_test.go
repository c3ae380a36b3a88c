package server

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/store"
	"graphsig/internal/wal"
)

// The restart shape: a `wide` node's disk when it restarts, a ring of
// hot windows of restartHosts sources each in the snapshot, cold windows
// in as many segment files, and the open window's records only in the
// WAL.
const (
	restartHosts       = 1200
	restartHot         = 8
	restartCold        = 4
	restartOpenRecords = 38000 // what one 1 200-source window logs
)

// restartConfig lays out the restart shape under dir and returns the config
// that boots it. The windows are built at the store, not ingested: each
// host's signature keeps most of a home set of peers from window to
// window, and the open window's records are spread over its hour.
func restartConfig(tb testing.TB, dir string) Config {
	tb.Helper()
	cfg := crashConfig(filepath.Join(dir, "snap"))
	cfg.StoreCapacity, cfg.SegmentRetain, cfg.SegmentDir = restartHot, restartCold, filepath.Join(dir, "seg")
	st, err := store.New(store.Config{Capacity: cfg.StoreCapacity, SegmentRetain: cfg.SegmentRetain})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.AttachSegments(cfg.SegmentDir); err != nil {
		tb.Fatal(err)
	}
	u := st.Universe()
	intern := func(label string) graph.NodeID { return u.MustIntern(label, cfg.Stream.Classify(label)) }
	sources := make([]graph.NodeID, restartHosts)
	peerIDs := make([]graph.NodeID, 4*restartHosts)
	for i := range peerIDs {
		peerIDs[i] = intern(restartPeer(i))
	}
	for h := range sources {
		sources[h] = intern(restartHost(h))
	}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < restartHot+restartCold; w++ {
		sigs := make([]core.Signature, restartHosts)
		for h := range sigs {
			weights := map[graph.NodeID]float64{}
			for i := 0; i < 10; i++ {
				peer := h/8*16 + i
				if rng.Intn(5) == 0 {
					peer = rng.Intn(len(peerIDs))
				}
				weights[peerIDs[peer]] = float64(10 - i)
			}
			sigs[h] = core.FromWeights(weights, cfg.Stream.K)
		}
		set, err := core.NewSignatureSet(cfg.Stream.Scheme, w, sources, sigs)
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.Add(set); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Save(cfg.SnapshotDir); err != nil {
		tb.Fatal(err)
	}

	log, _, err := wal.Open(WALPath(cfg.SnapshotDir))
	if err != nil {
		tb.Fatal(err)
	}
	defer log.Close()
	log.StageOrigin(testT0, cfg.Stream.WindowSize)
	records := restartRecords(cfg, rng, restartHot+restartCold)
	for i := 0; i < len(records); i += 2000 {
		if err := log.Append(records[i:min(i+2000, len(records))]); err != nil {
			tb.Fatal(err)
		}
	}
	return cfg
}

func restartHost(h int) string { return fmt.Sprintf("10.1.%d.%d", h/250, h%250) }
func restartPeer(i int) string { return fmt.Sprintf("peer-%05d", i) }

// restartRecords is window w's records in the restart shape: each host
// talks to peers of its home set, spread over the window's hour.
func restartRecords(cfg Config, rng *rand.Rand, w int) []netflow.Record {
	start := testT0.Add(time.Duration(w) * cfg.Stream.WindowSize)
	records := make([]netflow.Record, restartOpenRecords)
	for i := range records {
		h := i % restartHosts
		records[i] = netflow.Record{
			Src: restartHost(h), Dst: restartPeer(h/8*16 + rng.Intn(16)),
			Start:    start.Add(time.Duration(i) * cfg.Stream.WindowSize / restartOpenRecords),
			Sessions: 1 + rng.Intn(3), Proto: netflow.TCP,
		}
	}
	return records
}

// BenchmarkServerRestart times server.New over the restart shape: the
// snapshot's load, the segments' attach, the WAL's read and scan, and
// the replay of the open window. A restart changes nothing on disk, so
// every iteration boots the same directory. bench/'s restart_s is this
// call on the node it crashed.
func BenchmarkServerRestart(b *testing.B) {
	cfg := restartConfig(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rc := srv.Recovery()
		if !rc.SnapshotRestored || rc.SegmentsAttached != restartCold || rc.WALRecords != restartOpenRecords || rc.WALRejected != 0 || rc.WALWindowsClosed != 0 || srv.Store().Len() != restartHot {
			b.Fatalf("restart recovered %+v and %d hot windows", rc, srv.Store().Len())
		}
		srv.Abort()
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// BenchmarkServerWindowClose times one `wide`-shaped window close
// through Server.IngestBatch on the restart shape booted: a full ring of
// 1 200-source windows, SegmentRetain cold segments, the snapshot and
// the WAL. Each iteration ingests the open window's records untimed,
// then times the 2 000-record batch that closes it: its records, the
// extraction, the
// store's Add (the view, the evicted window's compaction, the new
// window's file), the checkpoint's Save, the WAL's generation change
// and the batch-end commit. With more than one P the extraction's runs
// and Add's legs run beside each other, so -cpu 2 reads under -cpu 1.
// span-cover is the share of the closing batch's trace its spans cover.
func BenchmarkServerWindowClose(b *testing.B) {
	cfg := restartConfig(b, b.TempDir())
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Abort()
	rng := rand.New(rand.NewSource(2))
	open := restartHot + restartCold // the window the WAL's records are in
	var cover float64
	b.ReportAllocs()
	b.ResetTimer()
	// A closing batch is bench/'s batch, half of it the open window's
	// last records and half the next window's first, as in a stream.
	const closeBatch, half = 2000, 1000
	var cur, tail []netflow.Record // the open window's records, when made here; those it has left to send
	sent := 0                      // how many of cur the batch that opened its window sent
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next := restartRecords(cfg, rng, open+1)
		if cur != nil {
			body := cur[sent : len(cur)-half]
			for j := 0; j < len(body); j += closeBatch {
				mustIngest(b, srv, body[j:min(j+closeBatch, len(body))])
			}
			tail = cur[len(cur)-half:]
		}
		sent = closeBatch - len(tail)
		closing := append(tail[:len(tail):len(tail)], next[:sent]...)
		b.StartTimer()
		res := srv.IngestBatch("", closing)
		b.StopTimer()
		if res.WindowsClosed != 1 || res.Accepted != len(closing) || srv.Store().Len() != restartHot || srv.Store().SegmentCount() != restartCold {
			b.Fatalf("close of window %d: %+v, %d hot windows, %d segments", open, res, srv.Store().Len(), srv.Store().SegmentCount())
		}
		tr := srv.Tracer().Recent(1)[0]
		for _, sp := range tr.Spans {
			cover += float64(sp.DurationMicros) / float64(tr.DurationMicros)
		}
		cur = next
		open++
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
	b.ReportMetric(cover/float64(b.N), "span-cover")
}
