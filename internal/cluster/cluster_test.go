package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

// testStreamConfig builds the pipeline configuration every node in a
// test topology shares — identical configuration is the cluster
// contract, so one constructor keeps the tests honest.
func testStreamConfig(gcfg datagen.EnterpriseConfig) stream.Config {
	return stream.Config{
		WindowSize: gcfg.WindowLength,
		Origin:     gcfg.Origin,
		Classify:   datagen.LocalClassifier,
		TCPOnly:    true,
		K:          10,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 2048, Depth: 4, Candidates: 128, Seed: 3},
	}
}

// newTestNode boots one sigserverd-equivalent server and serves it on
// an ephemeral port.
func newTestNode(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Abort() })
	return srv, ts
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sortHits applies the router's watch-hit order so single-node hit
// logs (which are chronological) compare against merged ones.
func sortHits(hits []server.WatchHitJSON) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Individual != b.Individual {
			return a.Individual < b.Individual
		}
		return a.ArchivedWindow < b.ArchivedWindow
	})
}

// TestClusterSmokeBitIdentical is the tentpole acceptance test: a
// 2-shard router topology must answer search, anomaly and watchlist
// queries bit-identically to one node holding the union of the data.
func TestClusterSmokeBitIdentical(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(17)
	gcfg.LocalHosts = 20
	gcfg.ExternalHosts = 250
	gcfg.Communities = 3
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 2
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	baseCfg := func() server.Config {
		return server.Config{
			Stream:        testStreamConfig(gcfg),
			StoreCapacity: 8,
			WatchMaxDist:  server.Float64(0.9),
		}
	}
	srvA, tsA := newTestNode(t, baseCfg())
	srvB, tsB := newTestNode(t, baseCfg())
	refSrv, refTS := newTestNode(t, baseCfg())
	refClient := server.NewClient(refTS.URL)

	rt, err := NewRouter(Config{
		Shards:  [][]string{{tsA.URL}, {tsB.URL}},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Same stream through both worlds, batch by batch; per-batch
	// accounting must already agree.
	const batchSize = 500
	for i := 0; i < len(data.Records); i += batchSize {
		end := min(i+batchSize, len(data.Records))
		batch := data.Records[i:end]
		id := fmt.Sprintf("smoke-%06d", i)
		cres, err := rt.Ingest(id, batch)
		if err != nil {
			t.Fatalf("routed ingest %s: %v", id, err)
		}
		rres, err := refClient.IngestBatch(id, batch)
		if err != nil {
			t.Fatalf("reference ingest %s: %v", id, err)
		}
		if cres.Accepted != rres.Accepted || cres.Dropped != rres.Dropped || cres.Rejected != rres.Rejected {
			t.Fatalf("batch %s accounting diverged: cluster %+v, single %+v", id, cres.IngestResult, rres)
		}
		if cres.ShardsOK != cres.ShardsTotal {
			t.Fatalf("batch %s landed on %d/%d shards", id, cres.ShardsOK, cres.ShardsTotal)
		}
	}

	// Watch one planted multiusage label in both worlds before the
	// final window closes, so screening runs on the same evidence.
	pairs := data.Truth.MultiusageSets()
	if len(pairs) == 0 {
		t.Fatal("workload has no multiusage ground truth")
	}
	watched := pairs[0][0]
	if _, err := rt.WatchlistAdd(server.WatchlistAddRequest{Individual: "case-0", Label: watched}); err != nil {
		t.Fatalf("cluster watchlist add: %v", err)
	}
	if _, err := refClient.WatchlistAdd(server.WatchlistAddRequest{Individual: "case-0", Label: watched}); err != nil {
		t.Fatalf("reference watchlist add: %v", err)
	}

	// Close the final partial window everywhere. Shard window close is
	// lazy (driven by each shard's own record arrivals), so this is the
	// comparison barrier.
	for _, s := range []*server.Server{srvA, srvB, refSrv} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := srvA.Store().Len()+srvB.Store().Len(), 0; got == want {
		t.Fatal("shards archived nothing; the workload never reached them")
	}

	// Every source label queried through both worlds: identical errors,
	// and bit-identical hit lists (JSON is the wire format, so equality
	// of the encoding is the real contract).
	seen := map[string]bool{}
	compared := 0
	for _, rec := range data.Records {
		if seen[rec.Src] {
			continue
		}
		seen[rec.Src] = true
		req := server.SearchRequest{Label: rec.Src, K: 10, MaxDist: 0.95}
		cres, cerr := rt.Search(req)
		rres, rerr := refClient.Search(req)
		if (cerr != nil) != (rerr != nil) {
			t.Fatalf("search %q: cluster err %v, single err %v", rec.Src, cerr, rerr)
		}
		if cerr != nil {
			continue
		}
		if cj, rj := mustJSON(t, cres.Hits), mustJSON(t, rres.Hits); cj != rj {
			t.Fatalf("search %q diverged:\ncluster: %s\nsingle:  %s", rec.Src, cj, rj)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d labels compared; workload too sparse to prove anything", compared)
	}

	// Batch search: one routed fan-out answering many slots must match
	// the single node's batch AND the equivalent single routed searches,
	// slot for slot, with per-slot errors agreeing on the bad slot.
	var batchQ []server.SearchRequest
	batchSeen := map[string]bool{}
	for _, rec := range data.Records {
		if batchSeen[rec.Src] {
			continue
		}
		batchSeen[rec.Src] = true
		batchQ = append(batchQ, server.SearchRequest{Label: rec.Src, K: 10, MaxDist: 0.95})
		if len(batchQ) == 12 {
			break
		}
	}
	batchQ = append(batchQ, server.SearchRequest{Label: "no-such-host"})
	cbatch, err := rt.SearchBatch(server.BatchSearchRequest{Queries: batchQ})
	if err != nil {
		t.Fatalf("cluster batch search: %v", err)
	}
	if cbatch.ShardsOK != cbatch.ShardsTotal {
		t.Fatalf("batch search degraded: %d/%d shards", cbatch.ShardsOK, cbatch.ShardsTotal)
	}
	rbatch, err := refClient.SearchBatch(server.BatchSearchRequest{Queries: batchQ})
	if err != nil {
		t.Fatalf("reference batch search: %v", err)
	}
	if len(cbatch.Results) != len(batchQ) || len(rbatch.Results) != len(batchQ) {
		t.Fatalf("batch sizes: cluster %d, single %d, want %d", len(cbatch.Results), len(rbatch.Results), len(batchQ))
	}
	for i := range batchQ {
		cr, rr := cbatch.Results[i], rbatch.Results[i]
		if (cr.Error != "") != (rr.Error != "") {
			t.Fatalf("batch slot %d error parity: cluster %q, single %q", i, cr.Error, rr.Error)
		}
		if cr.Error != "" {
			continue
		}
		if cj, rj := mustJSON(t, cr.Hits), mustJSON(t, rr.Hits); cj != rj {
			t.Fatalf("batch slot %d diverged from single node:\ncluster: %s\nsingle:  %s", i, cj, rj)
		}
		sres, serr := rt.Search(batchQ[i])
		if serr != nil {
			t.Fatalf("routed single search %d: %v", i, serr)
		}
		if cj, sj := mustJSON(t, cr.Hits), mustJSON(t, sres.Hits); cj != sj {
			t.Fatalf("batch slot %d diverged from routed single:\nbatch:  %s\nsingle: %s", i, cj, sj)
		}
	}
	if cbatch.Results[len(batchQ)-1].Error == "" {
		t.Fatal("unknown-label batch slot carried no error")
	}

	// Anomalies: same population statistics, same flagged set, bitwise.
	cano, err := rt.Anomalies("", 2.0)
	if err != nil {
		t.Fatalf("cluster anomalies: %v", err)
	}
	if cano.ShardsOK != cano.ShardsTotal {
		t.Fatalf("anomalies degraded: %d/%d shards", cano.ShardsOK, cano.ShardsTotal)
	}
	rano, err := refClient.Anomalies(2.0)
	if err != nil {
		t.Fatalf("reference anomalies: %v", err)
	}
	if cano.FromWindow != rano.FromWindow || cano.ToWindow != rano.ToWindow {
		t.Fatalf("anomaly windows diverged: cluster (%d,%d), single (%d,%d)",
			cano.FromWindow, cano.ToWindow, rano.FromWindow, rano.ToWindow)
	}
	if cano.Mean != rano.Mean || cano.StdDev != rano.StdDev {
		t.Fatalf("anomaly statistics diverged: cluster (%v,%v), single (%v,%v)",
			cano.Mean, cano.StdDev, rano.Mean, rano.StdDev)
	}
	if cj, rj := mustJSON(t, cano.Anomalies), mustJSON(t, rano.Anomalies); cj != rj {
		t.Fatalf("anomaly sets diverged:\ncluster: %s\nsingle:  %s", cj, rj)
	}

	// Watchlist hits: same set under the router's deterministic order.
	chits, err := rt.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	rhits, err := refClient.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	sortHits(rhits.Hits)
	if cj, rj := mustJSON(t, chits.Hits), mustJSON(t, rhits.Hits); cj != rj {
		t.Fatalf("watchlist hits diverged:\ncluster: %s\nsingle:  %s", cj, rj)
	}

	// History routes to the owner shard and must match the single node.
	chist, err := rt.History(watched, server.HistoryQuery{})
	if err != nil {
		t.Fatal(err)
	}
	rhist, err := refClient.History(watched)
	if err != nil {
		t.Fatal(err)
	}
	if cj, rj := mustJSON(t, chist.History), mustJSON(t, rhist.History); cj != rj {
		t.Fatalf("history %q diverged:\ncluster: %s\nsingle:  %s", watched, cj, rj)
	}
}

// TestClusterDegradation checks partial-result behavior: with one of
// two shards down, reads still answer from the survivor and report
// shards_ok=1/2 instead of failing.
func TestClusterDegradation(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(23)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 2
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := func() server.Config {
		return server.Config{Stream: testStreamConfig(gcfg), StoreCapacity: 8}
	}
	srvA, tsA := newTestNode(t, baseCfg())
	srvB, tsB := newTestNode(t, baseCfg())
	rt, err := NewRouter(Config{
		Shards:     [][]string{{tsA.URL}, {tsB.URL}},
		Timeout:    10 * time.Second,
		MaxRetries: -1, // a dead shard should degrade fast, not backoff
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Ingest("deg-1", data.Records); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*server.Server{srvA, srvB} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Find a label shard 0 owns, then take shard 1 down.
	var survivorLabel string
	for _, rec := range data.Records {
		if rt.Ring().Shard(rec.Src) == 0 {
			survivorLabel = rec.Src
			break
		}
	}
	if survivorLabel == "" {
		t.Fatal("no label owned by shard 0")
	}
	tsB.Close()

	sres, err := rt.Search(server.SearchRequest{Label: survivorLabel, K: 5, MaxDist: 0.99})
	if err != nil {
		t.Fatalf("degraded search should still answer: %v", err)
	}
	if sres.ShardsOK != 1 || sres.ShardsTotal != 2 {
		t.Fatalf("degraded search reported %d/%d shards, want 1/2", sres.ShardsOK, sres.ShardsTotal)
	}
	ares, err := rt.Anomalies("", 2.0)
	if err != nil {
		t.Fatalf("degraded anomalies should still answer: %v", err)
	}
	if ares.ShardsOK != 1 || ares.ShardsTotal != 2 {
		t.Fatalf("degraded anomalies reported %d/%d shards, want 1/2", ares.ShardsOK, ares.ShardsTotal)
	}
	hres, err := rt.WatchlistHits()
	if err != nil {
		t.Fatalf("degraded watchlist hits should still answer: %v", err)
	}
	if hres.ShardsOK != 1 || hres.ShardsTotal != 2 {
		t.Fatalf("degraded hits reported %d/%d shards, want 1/2", hres.ShardsOK, hres.ShardsTotal)
	}

	// The router's own surface reflects the degradation: /readyz goes
	// 503 with the dead shard named, and the partial counter moves.
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead shard = %d, want 503", resp.StatusCode)
	}
	var ready server.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || ready.Node == nil || ready.Node.Role != "router" {
		t.Fatalf("readyz body %+v, want not-ready with router identity", ready)
	}
	if got := rt.Registry().Snapshot()["partial_results"]; got == 0 {
		t.Fatal("partial_results counter did not move under degradation")
	}

	// Routed ingest with the owner of some records dead is a partial
	// failure: reported as an error with per-shard accounting, so the
	// client can retry the same batch ID for exactly-once completion.
	if _, err := rt.Ingest("deg-2", data.Records); err == nil {
		t.Fatal("ingest with a dead shard should report partial failure")
	}
}

// TestClusterNodeIdentity checks the identity satellite: shard servers
// report role/shard/ring-epoch in /readyz and as constant Prometheus
// labels.
func TestClusterNodeIdentity(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(5)
	ring, err := NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 4,
		Node:          &server.Identity{Role: "primary", Shard: 1, Shards: 2, RingEpoch: ring.Epoch()},
	}
	_, ts := newTestNode(t, cfg)
	c := server.NewClient(ts.URL)
	ready, err := c.Ready()
	if err != nil {
		t.Fatal(err)
	}
	if ready.Node == nil {
		t.Fatal("readyz has no node identity")
	}
	if ready.Node.Role != "primary" || ready.Node.Shard != 1 || ready.Node.Shards != 2 || ready.Node.RingEpoch != ring.Epoch() {
		t.Fatalf("readyz identity %+v", ready.Node)
	}
	fams, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// Every sample carries the node's identity as const labels.
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Label("role") != "primary" || s.Label("shard") != "1" || s.Label("ring_epoch") != fmt.Sprint(ring.Epoch()) {
				t.Fatalf("sample %s{%s} lacks the node identity", s.Name, s.Labels)
			}
		}
	}
}

// TestClusterFollowerCatchUp is the replication acceptance test: a
// follower that starts after the primary has already sealed WAL
// generations must replay them plus the live tail, serve search
// bit-identically to a reference holding the same records, and keep
// serving after the primary is killed.
func TestClusterFollowerCatchUp(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(31)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	primarySrv, primaryTS := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary"},
	})
	pc := server.NewClient(primaryTS.URL)
	refSrv, refTS := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
	})
	refClient := server.NewClient(refTS.URL)

	ingestBoth := func(lo, hi int) int {
		t.Helper()
		accepted := 0
		const batchSize = 400
		for i := lo; i < hi; i += batchSize {
			end := min(i+batchSize, hi)
			res, err := pc.IngestBatch(fmt.Sprintf("rep-%06d", i), data.Records[i:end])
			if err != nil {
				t.Fatal(err)
			}
			accepted += res.Accepted
			if _, err := refClient.IngestBatch(fmt.Sprintf("rep-%06d", i), data.Records[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		return accepted
	}

	// First half before the follower exists: window closes checkpoint
	// the primary, sealing WAL generations the follower must replay
	// from segment files rather than the live log.
	half := len(data.Records) / 2
	accepted := ingestBoth(0, half)

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{primaryTS.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		Poll:          5 * time.Millisecond,
		ChunkBytes:    2048, // force many fetches per generation
		Node:          &server.Identity{Role: "follower"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	accepted += ingestBoth(half, len(data.Records))

	// The primary must actually have rotated — otherwise this test is
	// not exercising sealed-segment catch-up at all.
	rs, err := pc.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Gen == 0 {
		t.Fatal("primary never rotated its WAL; test premise broken")
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Stats()
		if st.Fatal != "" {
			t.Fatalf("follower died: %s", st.Fatal)
		}
		if st.CaughtUp && st.AppliedRecords == accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v (want %d applied)", st, accepted)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the primary. The follower keeps serving what it has.
	primaryTS.Close()
	primarySrv.Abort()

	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	fc := server.NewClient(fts.URL)

	ready, err := fc.Ready()
	if err != nil {
		t.Fatal(err)
	}
	if ready.Node == nil || ready.Node.Role != "follower" {
		t.Fatalf("follower readyz identity %+v, want role follower", ready.Node)
	}

	// Writes are refused: a replica that silently accepted flows would
	// fork from its primary.
	if _, err := fc.Ingest([]netflow.Record{data.Records[0]}); server.APIStatus(err) != http.StatusForbidden {
		t.Fatalf("follower ingest error %v, want HTTP 403", err)
	}

	// Close the final partial window on both and compare every label's
	// search and history bitwise.
	if _, err := f.Server().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := refSrv.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	compared := 0
	for _, rec := range data.Records {
		if seen[rec.Src] {
			continue
		}
		seen[rec.Src] = true
		req := server.SearchRequest{Label: rec.Src, K: 10, MaxDist: 0.95}
		fres, ferr := fc.Search(req)
		rres, rerr := refClient.Search(req)
		if (ferr != nil) != (rerr != nil) {
			t.Fatalf("search %q: follower err %v, reference err %v", rec.Src, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if fj, rj := mustJSON(t, fres.Hits), mustJSON(t, rres.Hits); fj != rj {
			t.Fatalf("follower search %q diverged:\nfollower:  %s\nreference: %s", rec.Src, fj, rj)
		}
		compared++
	}
	if compared < 5 {
		t.Fatalf("only %d labels compared on the follower", compared)
	}
}

// TestClusterFailoverPromotion is the fault-tolerance acceptance test:
// a replicated shard's primary is killed mid-run; reads must keep
// answering through its follower without a shards_ok drop (staleness
// surfaced), auto-promotion must restore writes, and after the second
// half of the traffic lands through the promoted node every query must
// stay bit-identical to a single reference node over the union —
// including watch entries added before the kill.
func TestClusterFailoverPromotion(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(41)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	watchDist := server.Float64(0.9)

	// Shard 0 replicates to a follower; shard 1 stays a plain primary.
	srvA, tsA := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary", Shard: 0, Shards: 2},
	})
	srvB, tsB := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
	})
	refSrv, refTS := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
	})
	refClient := server.NewClient(refTS.URL)

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{tsA.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		WatchMaxDist:  watchDist,
		Poll:          5 * time.Millisecond,
		ChunkBytes:    2048,
		PromoteDir:    t.TempDir(),
		Node:          &server.Identity{Role: "follower", Shard: 0, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	fts := httptest.NewServer(f.FollowerHandler())
	defer fts.Close()

	rt, err := NewRouter(Config{
		Shards:    [][]string{{tsA.URL}, {tsB.URL}},
		Followers: [][]string{{fts.URL}, nil},
		Health: &HealthConfig{
			Interval:      time.Hour, // never fires: the test drives ProbeOnce
			FailThreshold: 3,
			Cooldown:      time.Millisecond,
			AutoPromote:   time.Millisecond,
			Timeout:       5 * time.Second,
		},
		Timeout:    30 * time.Second,
		MaxRetries: -1, // fail fast against the killed primary
	})
	if err != nil {
		t.Fatal(err)
	}

	ingestBoth := func(lo, hi int) {
		t.Helper()
		const batchSize = 400
		for i := lo; i < hi; i += batchSize {
			end := min(i+batchSize, hi)
			id := fmt.Sprintf("fo-%06d", i)
			cres, err := rt.Ingest(id, data.Records[i:end])
			if err != nil {
				t.Fatalf("routed ingest %s: %v", id, err)
			}
			rres, err := refClient.IngestBatch(id, data.Records[i:end])
			if err != nil {
				t.Fatalf("reference ingest %s: %v", id, err)
			}
			if cres.Accepted != rres.Accepted || cres.Dropped != rres.Dropped || cres.Rejected != rres.Rejected {
				t.Fatalf("batch %s accounting diverged: cluster %+v, single %+v", id, cres.IngestResult, rres)
			}
		}
	}

	// First half of the traffic, plus a watch entry, before the fault.
	half := len(data.Records) / 2
	ingestBoth(0, half)
	pairs := data.Truth.MultiusageSets()
	if len(pairs) == 0 {
		t.Fatal("workload has no multiusage ground truth")
	}
	watched := pairs[0][0]
	if _, err := rt.WatchlistAdd(server.WatchlistAddRequest{Individual: "case-0", Label: watched}); err != nil {
		t.Fatalf("cluster watchlist add: %v", err)
	}
	if _, err := refClient.WatchlistAdd(server.WatchlistAddRequest{Individual: "case-0", Label: watched}); err != nil {
		t.Fatalf("reference watchlist add: %v", err)
	}

	// Barrier: the follower must hold everything the primary durably
	// logged before the kill, or the fault would (correctly) lose data.
	pcA := server.NewClient(tsA.URL)
	rs, err := pcA.ReplicationStatus()
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
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached primary cursor (%d,%d): %+v", rs.Gen, rs.DurableSize, st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill shard 0's primary and let the prober converge: FailThreshold
	// rounds walk it to Down, the next round auto-promotes.
	tsA.Close()
	srvA.Abort()
	p := rt.Prober()
	for i := 0; i < 3; i++ {
		p.ProbeOnce()
	}
	if tgt := p.target(0); !tgt.primaryDown {
		t.Fatalf("prober did not mark shard 0 primary down: %+v", tgt)
	}

	// The first batch nobody acknowledges: sent while shard 0 has no
	// primary, it lands on shard 1 alone and the router says so. Its
	// client retries it after the promotion (ingestBoth below).
	unacked, err := rt.Ingest(fmt.Sprintf("fo-%06d", half), data.Records[half:min(half+400, len(data.Records))])
	if err == nil || unacked.ShardsOK != 1 || unacked.ShardsTotal != 2 {
		t.Fatalf("ingest with shard 0 down landed on %d/%d shards (err %v), want 1/2 and an error", unacked.ShardsOK, unacked.ShardsTotal, err)
	}

	// Before promotion: reads fail over to the follower with no
	// shards_ok drop, and staleness is surfaced per shard.
	var ownedByZero string
	for _, rec := range data.Records {
		if rt.Ring().Shard(rec.Src) == 0 {
			ownedByZero = rec.Src
			break
		}
	}
	if ownedByZero == "" {
		t.Fatal("no label owned by shard 0")
	}
	sres, err := rt.Search(server.SearchRequest{Label: ownedByZero, K: 5, MaxDist: 0.99})
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if sres.ShardsOK != 2 {
		t.Fatalf("failover search answered %d/%d shards, want 2/2", sres.ShardsOK, sres.ShardsTotal)
	}
	if len(sres.StaleShards) != 1 || sres.StaleShards[0].Shard != 0 {
		t.Fatalf("failover search stale_shards = %+v, want shard 0", sres.StaleShards)
	}
	if got := rt.failoverReads.With("0").Value(); got == 0 {
		t.Fatal("failover_reads_total did not move")
	}

	// Promotion: downSince is already past the 1ms grace, so one more
	// round issues it; the follower flips to read-write.
	time.Sleep(5 * time.Millisecond)
	p.ProbeOnce()
	if tgt := p.target(0); tgt.promoted < 0 {
		t.Fatalf("prober did not promote shard 0's follower: %+v", tgt)
	}
	st := f.Stats()
	if !st.Promoted {
		t.Fatalf("follower not promoted: %+v", st)
	}
	promoted := f.Server()
	if id := promoted.Identity(); id == nil || id.Role != "primary" || id.RingEpoch != 1 {
		t.Fatalf("promoted identity %+v, want primary at ring epoch 1", id)
	}

	// Exactly-once across the failover: re-sending a pre-kill batch ID —
	// the first, and the last one the dead primary acknowledged, whose
	// marker travelled in the same commit as its records — must be
	// absorbed by the promoted node's replicated dedup set, with the
	// original accounting.
	for _, lo := range []int{0, (half - 1) / 400 * 400} {
		id := fmt.Sprintf("fo-%06d", lo)
		re, err := rt.Ingest(id, data.Records[lo:min(lo+400, half)])
		if err != nil {
			t.Fatalf("replayed batch %s after promotion: %v", id, err)
		}
		if !re.Deduplicated {
			t.Fatalf("promoted node did not deduplicate pre-kill batch %s", id)
		}
		if re.ShardsOK != re.ShardsTotal {
			t.Fatalf("replayed batch %s landed on %d/%d shards", id, re.ShardsOK, re.ShardsTotal)
		}
	}

	// Second half of the traffic lands through the promoted node. It
	// opens with the retry of the unacknowledged batch: shard 1 answers
	// from its dedup set, the promoted node applies its share for the
	// first time, and the accounting (checked per batch) and every
	// comparison below are those of one application.
	ingestBoth(half, len(data.Records))

	// Close final windows everywhere and compare the two worlds bitwise.
	for _, s := range []*server.Server{promoted, srvB, refSrv} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	compared := 0
	for _, rec := range data.Records {
		if seen[rec.Src] {
			continue
		}
		seen[rec.Src] = true
		req := server.SearchRequest{Label: rec.Src, K: 10, MaxDist: 0.95}
		cres, cerr := rt.Search(req)
		rres, rerr := refClient.Search(req)
		if (cerr != nil) != (rerr != nil) {
			t.Fatalf("search %q: cluster err %v, single err %v", rec.Src, cerr, rerr)
		}
		if cerr != nil {
			continue
		}
		if cj, rj := mustJSON(t, cres.Hits), mustJSON(t, rres.Hits); cj != rj {
			t.Fatalf("post-promotion search %q diverged:\ncluster: %s\nsingle:  %s", rec.Src, cj, rj)
		}
		compared++
	}
	if compared < 10 {
		t.Fatalf("only %d labels compared post-promotion", compared)
	}

	// The watch entry added before the kill survived the failover: hit
	// logs merge bit-identically to the reference.
	chits, err := rt.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	if chits.ShardsOK != chits.ShardsTotal {
		t.Fatalf("watchlist hits answered %d/%d shards", chits.ShardsOK, chits.ShardsTotal)
	}
	rhits, err := refClient.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	sortHits(rhits.Hits)
	if cj, rj := mustJSON(t, chits.Hits), mustJSON(t, rhits.Hits); cj != rj {
		t.Fatalf("post-promotion watchlist hits diverged:\ncluster: %s\nsingle:  %s", cj, rj)
	}

	// Anomalies over the union stay bit-identical too.
	cano, err := rt.Anomalies("", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rano, err := refClient.Anomalies(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if cano.Mean != rano.Mean || cano.StdDev != rano.StdDev {
		t.Fatalf("post-promotion anomaly statistics diverged: cluster (%v,%v), single (%v,%v)",
			cano.Mean, cano.StdDev, rano.Mean, rano.StdDev)
	}
	if cj, rj := mustJSON(t, cano.Anomalies), mustJSON(t, rano.Anomalies); cj != rj {
		t.Fatalf("post-promotion anomaly sets diverged:\ncluster: %s\nsingle:  %s", cj, rj)
	}
}

// TestClusterPostRoutesRefuseTrailingBytes: every POST route of a node
// and of the router reads exactly one JSON value. Whitespace may follow
// it; anything else is a 400 instead of being ignored.
func TestClusterPostRoutesRefuseTrailingBytes(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(5)
	_, node := newTestNode(t, server.Config{Stream: testStreamConfig(gcfg), StoreCapacity: 4})
	rt, err := NewRouter(Config{Shards: [][]string{{node.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	// Window 0 closes with 10.0.0.1 in it, for the watchlist to find.
	next := gcfg.Origin.Add(gcfg.WindowLength)
	if _, err := server.NewClient(node.URL).Ingest([]netflow.Record{
		{Src: "10.0.0.1", Dst: "198.18.0.1", Start: gcfg.Origin, Sessions: 1, Proto: netflow.TCP},
		{Src: "10.0.0.2", Dst: "198.18.0.1", Start: next, Sessions: 1, Proto: netflow.TCP},
	}); err != nil {
		t.Fatal(err)
	}
	sig := `"signature":{"nodes":["198.18.0.1"],"weights":[1]}`
	routes := []struct{ path, body string }{
		{"/v1/flows", `{"records":[{"src":"10.0.0.1","dst":"198.18.0.1","start":"` + next.Format(time.RFC3339) + `","sessions":1}]}`},
		{"/v1/search", `{` + sig + `,"k":1}`},
		{"/v1/search/batch", `{"queries":[{` + sig + `,"k":1}]}`},
		{"/v1/watchlist", `{"individual":"case-0","label":"10.0.0.1"}`},
	}
	for _, target := range []struct{ name, url string }{{"node", node.URL}, {"router", router.URL}} {
		for _, r := range routes {
			for _, c := range []struct {
				suffix string
				want   int
			}{{" \n\t", http.StatusOK}, {" x", http.StatusBadRequest}, {"{}", http.StatusBadRequest}, {"]", http.StatusBadRequest}} {
				resp, err := http.Post(target.url+r.path, "application/json", strings.NewReader(r.body+c.suffix))
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != c.want {
					t.Errorf("%s POST %s with %q after the body: %d %s, want %d", target.name, r.path, c.suffix, resp.StatusCode, msg, c.want)
				}
			}
		}
	}
}

// spaces reads as endless blanks.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestClusterPostRoutesRefuseOversizedBodies: a body one byte over
// server.MaxBodyBytes is a 413 on a node and on the router, through the
// flows reader and through DecodeJSON alike.
func TestClusterPostRoutesRefuseOversizedBodies(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(5)
	_, node := newTestNode(t, server.Config{Stream: testStreamConfig(gcfg), StoreCapacity: 4})
	rt, err := NewRouter(Config{Shards: [][]string{{node.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	for _, target := range []struct{ name, url string }{{"node", node.URL}, {"router", router.URL}} {
		for _, r := range []struct{ path, body string }{{"/v1/flows", `{"records":[]}`}, {"/v1/search", `{"label":"10.0.0.1","k":1}`}} {
			n := int64(server.MaxBodyBytes + 1)
			req, err := http.NewRequest(http.MethodPost, target.url+r.path,
				io.MultiReader(strings.NewReader(r.body), io.LimitReader(spaces{}, n-int64(len(r.body)))))
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = n
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "request body too large") {
				t.Errorf("%s POST %s of %d bytes: %d %s, want 413", target.name, r.path, n, resp.StatusCode, msg)
			}
		}
	}
}
