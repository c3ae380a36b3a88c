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
	hosts := make([]string, restartHosts)
	peers := make([]string, 4*restartHosts)
	sources := make([]graph.NodeID, restartHosts)
	peerIDs := make([]graph.NodeID, len(peers))
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%05d", i)
		peerIDs[i] = intern(peers[i])
	}
	for h := range hosts {
		hosts[h] = fmt.Sprintf("10.1.%d.%d", h/250, h%250)
		sources[h] = intern(hosts[h])
	}
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < restartHot+restartCold; w++ {
		sigs := make([]core.Signature, restartHosts)
		for h := range sigs {
			weights := map[graph.NodeID]float64{}
			for i := 0; i < 10; i++ {
				peer := h/8*16 + i
				if rng.Intn(5) == 0 {
					peer = rng.Intn(len(peers))
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
	open := testT0.Add(time.Duration(restartHot+restartCold) * cfg.Stream.WindowSize)
	records := make([]netflow.Record, restartOpenRecords)
	for i := range records {
		h := i % restartHosts
		records[i] = netflow.Record{
			Src: hosts[h], Dst: peers[h/8*16+rng.Intn(16)],
			Start:    open.Add(time.Duration(i) * cfg.Stream.WindowSize / restartOpenRecords),
			Sessions: 1 + rng.Intn(3), Proto: netflow.TCP,
		}
	}
	for i := 0; i < len(records); i += 2000 {
		if err := log.Append(records[i:min(i+2000, len(records))]); err != nil {
			tb.Fatal(err)
		}
	}
	return cfg
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
