package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// TestFollowerKeepsSubMillisecondRecordsInTheirWindow: a primary fed
// starts at nanosecond precision ships them at the log's millisecond
// precision; both must put every record in the same window. Two records
// a window apart to the millisecond, less than a window apart to the
// nanosecond, with the origin left to the first of them.
func TestFollowerKeepsSubMillisecondRecordsInTheirWindow(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(1)
	scfg := testStreamConfig(gcfg)
	scfg.Origin = time.Time{}
	_, primaryTS := newTestNode(t, server.Config{
		Stream:        scfg,
		StoreCapacity: 8,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
	})
	pc := server.NewClient(primaryTS.URL)
	flow := func(dst string, at time.Duration) netflow.Record {
		return netflow.Record{Src: datagen.LocalLabel(1), Dst: dst, Start: gcfg.Origin.Add(at), Sessions: 1, Proto: netflow.TCP}
	}
	flows := []netflow.Record{
		flow(datagen.ExternalLabel(1), 900*time.Microsecond),
		flow(datagen.ExternalLabel(2), scfg.WindowSize+600*time.Microsecond),
	}
	res, err := pc.Ingest(flows)
	if err != nil || res.Accepted != len(flows) {
		t.Fatalf("primary ingest: %+v, %v", res, err)
	}

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{primaryTS.URL},
		Stream:        scfg,
		StoreCapacity: 8,
		Poll:          5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st := f.Stats()
		if st.Fatal != "" {
			t.Fatalf("follower died: %s", st.Fatal)
		}
		if st.CaughtUp && st.AppliedRecords == len(flows) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", st)
		}
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	ph, err := pc.Health()
	if err != nil {
		t.Fatal(err)
	}
	fh, err := server.NewClient(fts.URL).Health()
	if err != nil {
		t.Fatal(err)
	}
	if ph.CurrentWindow != fh.CurrentWindow || ph.Windows != fh.Windows || ph.CurrentWindow != res.CurrentWindow {
		t.Fatalf("primary: window %d open, %d archived; follower: window %d open, %d archived",
			ph.CurrentWindow, ph.Windows, fh.CurrentWindow, fh.Windows)
	}
}
