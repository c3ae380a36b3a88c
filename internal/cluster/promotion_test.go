package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// catchUpToPrimary blocks until the follower's cursor reaches the
// primary's durable tail (or fails the test).
func catchUpToPrimary(t *testing.T, f *Follower, pc *server.Client) {
	t.Helper()
	rs, err := pc.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Stats()
		if st.Fatal != "" {
			t.Fatalf("follower died: %s", st.Fatal)
		}
		if st.Gen > rs.Gen || (st.Gen == rs.Gen && st.Offset >= rs.DurableSize) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached primary cursor (%d,%d): %+v", rs.Gen, rs.DurableSize, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchEntriesSurvivePromotion pins the watchlist replication
// contract end to end: watch entries added on the primary are
// WAL-shipped (frame kinds 3/4), so a follower promoted after the
// primary dies must hold the full watchlist, keep screening windows
// that close after the promotion, and end with a hit log bit-identical
// to a single node that saw everything.
func TestWatchEntriesSurvivePromotion(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(53)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	watchDist := server.Float64(0.9)

	_, pts := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary"},
	})
	pc := server.NewClient(pts.URL)
	refSrv, refTS := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
	})
	refClient := server.NewClient(refTS.URL)

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{pts.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
		Poll:          5 * time.Millisecond,
		ChunkBytes:    2048,
		PromoteDir:    t.TempDir(),
		Node:          &server.Identity{Role: "follower"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	ingest := func(c *server.Client, lo, hi int) {
		t.Helper()
		const batchSize = 400
		for i := lo; i < hi; i += batchSize {
			end := min(i+batchSize, hi)
			if _, err := c.IngestBatch(fmt.Sprintf("wp-%06d", i), data.Records[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First half plus the watch entries land on the live primary. Both
	// add forms ship: a label add (archived history replayed as
	// explicit-signature WAL frames) and an explicit-signature add.
	half := len(data.Records) / 2
	ingest(pc, 0, half)
	ingest(refClient, 0, half)
	pairs := data.Truth.MultiusageSets()
	if len(pairs) == 0 {
		t.Fatal("workload has no multiusage ground truth")
	}
	watched := pairs[0][0]
	for _, c := range []*server.Client{pc, refClient} {
		if _, err := c.WatchlistAdd(server.WatchlistAddRequest{Individual: "case-0", Label: watched}); err != nil {
			t.Fatalf("watchlist add: %v", err)
		}
	}

	catchUpToPrimary(t, f, pc)

	// Kill the primary, promote the follower, and land the second half
	// through the promoted node: its inherited watchlist must screen
	// these windows as they close.
	pts.Close()
	promoted, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	fc := server.NewClient(fts.URL)
	ingest(fc, half, len(data.Records))
	ingest(refClient, half, len(data.Records))
	for _, s := range []*server.Server{promoted, refSrv} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	fhits, err := fc.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	rhits, err := refClient.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	if len(rhits.Hits) == 0 {
		t.Fatal("reference recorded no watch hits; the scenario is vacuous")
	}
	if fj, rj := mustJSON(t, fhits.Hits), mustJSON(t, rhits.Hits); fj != rj {
		t.Fatalf("promoted node's hit log diverged:\npromoted:  %s\nreference: %s", fj, rj)
	}
	// At least one hit must postdate the promotion — otherwise this
	// proved only that old hits were shipped, not that the watchlist
	// itself survived to screen new windows.
	post := false
	for _, h := range fhits.Hits {
		if h.Window >= gcfg.Windows-1 {
			post = true
		}
	}
	if !post {
		t.Fatalf("no watch hit after promotion (hits: %s)", mustJSON(t, fhits.Hits))
	}
}

// TestFollowerSegmentsBitwise: a follower configured with a segment
// dir compacts ring evictions of the shipped WAL into cold segment
// files that must agree bitwise with the primary's — the block codec
// and compaction boundaries are deterministic functions of the window
// sequence, which replication preserves exactly.
func TestFollowerSegmentsBitwise(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(67)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 120
	gcfg.Windows = 10
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	segPrimary, segFollower := t.TempDir(), t.TempDir()
	_, pts := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 3,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		SegmentDir:    segPrimary,
		Node:          &server.Identity{Role: "primary"},
	})
	pc := server.NewClient(pts.URL)

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{pts.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 3,
		Poll:          5 * time.Millisecond,
		ChunkBytes:    4096,
		SegmentDir:    segFollower,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	const batchSize = 300
	for i := 0; i < len(data.Records); i += batchSize {
		end := min(i+batchSize, len(data.Records))
		if _, err := pc.IngestBatch(fmt.Sprintf("seg-%06d", i), data.Records[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	catchUpToPrimary(t, f, pc)

	list := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	pFiles := list(segPrimary)
	if len(pFiles) == 0 {
		t.Fatal("primary compacted no segments; the scenario is vacuous")
	}
	fFiles := list(segFollower)
	if pj, fj := mustJSON(t, pFiles), mustJSON(t, fFiles); pj != fj {
		t.Fatalf("segment file sets differ:\nprimary:  %s\nfollower: %s", pj, fj)
	}
	for _, name := range pFiles {
		pb, err := os.ReadFile(filepath.Join(segPrimary, name))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(filepath.Join(segFollower, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("segment %s differs between primary and follower", name)
		}
	}

	// Deep history through the follower's read API reaches into its
	// segments and matches the primary's answer entry for entry.
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	fc := server.NewClient(fts.URL)
	compared := 0
	seen := map[string]bool{}
	for _, rec := range data.Records {
		if seen[rec.Src] {
			continue
		}
		seen[rec.Src] = true
		q := server.HistoryQuery{Limit: -1}
		ph, perr := pc.HistoryRange(rec.Src, q)
		fh, ferr := fc.HistoryRange(rec.Src, q)
		if (perr != nil) != (ferr != nil) {
			t.Fatalf("history %q: primary err %v, follower err %v", rec.Src, perr, ferr)
		}
		if perr != nil {
			continue
		}
		if pj, fj := mustJSON(t, ph), mustJSON(t, fh); pj != fj {
			t.Fatalf("deep history %q diverged:\nprimary:  %s\nfollower: %s", rec.Src, pj, fj)
		}
		if len(ph.History) > 3 { // reaches past the 3-window ring into segments
			compared++
		}
	}
	if compared < 3 {
		t.Fatalf("only %d labels had segment-depth history", compared)
	}
}

// TestFollowerOfARestartedPrimaryHoldsWatchEntriesOnce: a follower skips
// the watch entries it has applied only where a generation replays them
// as its prologue, so a primary that crashed and rebooted must not commit
// the entries it replayed into the same generation again — the follower
// would apply them a second time and report every hit twice. Primary and
// follower end with the same watchlist and the same hit log.
func TestFollowerOfARestartedPrimaryHoldsWatchEntriesOnce(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(1)
	scfg := testStreamConfig(gcfg)
	cfg := server.Config{
		Stream:        scfg,
		StoreCapacity: 8,
		WatchMaxDist:  server.Float64(0.9),
		SnapshotDir:   filepath.Join(t.TempDir(), "snap"),
		Replicate:     true,
	}
	var live atomic.Pointer[server.Server]
	boot := func() {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live.Store(srv)
	}
	boot()
	defer func() { live.Load().Abort() }()
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().Handler().ServeHTTP(w, r)
	}))
	defer pts.Close()
	pc := server.NewClient(pts.URL)

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{pts.URL},
		Stream:        scfg,
		StoreCapacity: 8,
		WatchMaxDist:  server.Float64(0.9),
		Poll:          5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	fc := server.NewClient(fts.URL)

	local, ext := datagen.LocalLabel(1), datagen.ExternalLabel(1)
	ingest := func(id string, at time.Duration) {
		t.Helper()
		rec := netflow.Record{Src: local, Dst: ext, Start: gcfg.Origin.Add(at), Sessions: 1, Proto: netflow.TCP}
		if res, err := pc.IngestBatch(id, []netflow.Record{rec}); err != nil || res.Accepted != 1 {
			t.Fatalf("ingest %s: %+v, %v", id, res, err)
		}
	}
	watchlists := func(when string) {
		t.Helper()
		catchUpToPrimary(t, f, pc)
		for name, c := range map[string]*server.Client{"primary": pc, "follower": fc} {
			fams, err := c.Metrics()
			if n := obs.Totals(fams)["watchlist_size"]; err != nil || n != 1 {
				t.Fatalf("%s: the %s holds %d watch entries (%v), want 1", when, name, n, err)
			}
		}
	}

	ingest("b-1", time.Minute)
	window := 0
	if _, err := pc.WatchlistAdd(server.WatchlistAddRequest{
		Individual: "case-1", Label: local, Window: &window,
		Signature: &server.SignatureJSON{Nodes: []string{ext}, Weights: []float64{1}},
	}); err != nil {
		t.Fatal(err)
	}
	watchlists("before the crash")

	live.Load().Abort()
	boot()
	ingest("b-2", 2*time.Minute) // closes no window: commits into the generation replayed
	watchlists("after the reboot's first batch")
	ingest("b-3", scfg.WindowSize+time.Minute) // closes window 0: a new generation, its prologue
	watchlists("after the close")

	phits, err := pc.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	fhits, err := fc.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	if len(phits.Hits) != 1 || mustJSON(t, fhits.Hits) != mustJSON(t, phits.Hits) {
		t.Fatalf("hits, primary: %s\nfollower: %s\nwant the one hit of window 0 on both", mustJSON(t, phits.Hits), mustJSON(t, fhits.Hits))
	}
}

// TestProberPromoteFailureIsNotAPromotion: a promotion the follower
// cannot carry out (its WAL would go under a directory that does not
// exist) answers 500, not the 409 that means "already promoted". The
// prober therefore counts nothing and keeps writes on the primary slot,
// and the follower, whose replication Promote had already stopped,
// reports Fatal instead of looking like a healthy replica. A follower
// with no replica yet answers 503.
func TestProberPromoteFailureIsNotAPromotion(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(59)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 2
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pts := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 4,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary"},
	})
	pc := server.NewClient(pts.URL)
	if _, err := pc.IngestBatch("pf-0", data.Records); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{
		Primary:       []string{pts.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 4,
		Poll:          5 * time.Millisecond,
		PromoteDir:    filepath.Join(t.TempDir(), "missing", "snap"),
		Node:          &server.Identity{Role: "follower"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	catchUpToPrimary(t, f, pc)
	fts := httptest.NewServer(f.FollowerHandler())
	defer fts.Close()

	rt, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{fts.URL}},
		Health: &HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 1,
			Cooldown:      time.Millisecond,
			AutoPromote:   time.Millisecond,
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts.Close()
	p := rt.Prober()
	p.ProbeOnce() // the primary goes Down
	time.Sleep(5 * time.Millisecond)
	p.ProbeOnce() // past the grace period: the prober POSTs the promotion
	p.ProbeOnce()

	if got := rt.Registry().Snapshot()["promotions_total"]; got != 0 {
		t.Fatalf("promotions_total = %d after a failed promotion, want 0", got)
	}
	if tgt := p.target(0); tgt.promoted >= 0 {
		t.Fatalf("prober view %+v marks the follower promoted", tgt)
	}
	if rt.writeClient(0) != rt.clients[0] {
		t.Fatal("writes moved off the primary slot onto a read-only follower")
	}

	promote := func(base string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/promote", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := promote(fts.URL); got != http.StatusInternalServerError {
		t.Fatalf("POST /v1/promote that cannot open its WAL = %d, want 500", got)
	}
	resp, err := http.Get(fts.URL + "/v1/follower/status")
	if err != nil {
		t.Fatal(err)
	}
	var st FollowerStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fatal == "" || st.Promoted {
		t.Fatalf("follower status after a failed promotion %+v, want Fatal set and not promoted", st)
	}

	blank, err := NewFollower(FollowerConfig{Primary: []string{pts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(blank.FollowerHandler())
	defer bts.Close()
	if got := promote(bts.URL); got != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/promote with no replica yet = %d, want 503", got)
	}
}
