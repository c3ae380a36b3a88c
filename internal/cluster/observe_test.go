package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// signatureQuery builds a signature search whose query signature lives
// on the given shard, so a routed fan-out demonstrably does real work
// there. Signature (not label) queries keep the trace shape simple:
// exactly one segment per node, no owner-shard resolution segment.
func signatureQuery(t *testing.T, rt *Router, records []netflow.Record, shard int) server.SearchRequest {
	t.Helper()
	for _, rec := range records {
		if rt.Ring().Shard(rec.Src) != shard {
			continue
		}
		hist, err := rt.History(rec.Src, server.HistoryQuery{})
		if err != nil {
			continue
		}
		for i := len(hist.History) - 1; i >= 0; i-- {
			if len(hist.History[i].Signature.Nodes) > 0 {
				sig := hist.History[i].Signature
				return server.SearchRequest{Signature: &sig, K: 5, MaxDist: 0.99}
			}
		}
	}
	t.Fatalf("no archived signature owned by shard %d", shard)
	return server.SearchRequest{}
}

// waitTrace polls a node's trace ring until the segment appears —
// nodes archive their segment under a deferred Finish that may still be
// in flight when the routed response reaches the test.
func waitTrace(t *testing.T, c *server.Client, id string) obs.TraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := c.TraceByID(id)
		if err == nil {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q never appeared on node: %v", id, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitRouterTrace(t *testing.T, rt *Router, id string) obs.TraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, ok := rt.Tracer().Find(id); ok {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q never appeared on the router ring", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStitched polls the router's stitching endpoint until the tree
// spans at least minNodes nodes.
func waitStitched(t *testing.T, base, id string, minNodes int) StitchedTraceResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st StitchedTraceResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				resp.Body.Close()
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && len(st.Nodes) >= minNodes {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched trace %q never reached %d nodes (last status %d, nodes %v)",
				id, minNodes, resp.StatusCode, st.Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func countStitched(n *StitchedSpan) int {
	count := 1
	for _, c := range n.Children {
		count += countStitched(c)
	}
	return count
}

func hasCriticalDescendant(n *StitchedSpan) bool {
	for _, c := range n.Children {
		if c.Critical || hasCriticalDescendant(c) {
			return true
		}
	}
	return false
}

func containsNode(nodes []string, want string) bool {
	for _, n := range nodes {
		if n == want {
			return true
		}
	}
	return false
}

// federatedSample finds one sample by family name and exact rendered
// label set in a parsed exposition.
func federatedSample(fams []obs.Family, name, labels string) (float64, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels == labels {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// TestClusterFederateSmoke is the observability acceptance test on a
// healthy 2-shard cluster: a traced batch search produces ONE trace ID
// on the router and on every shard; GET /v1/traces/{id} stitches the
// segments into a single tree whose span count is the sum of the
// per-node segment sizes; and GET /metrics?federate=1 serves a valid
// exposition whose cluster counter aggregates equal the per-shard sums.
func TestClusterFederateSmoke(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(53)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 2
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	baseCfg := func(shard int) server.Config {
		return server.Config{
			Stream:        testStreamConfig(gcfg),
			StoreCapacity: 8,
			Node:          &server.Identity{Role: "primary", Shard: shard, Shards: 2},
		}
	}
	srvA, tsA := newTestNode(t, baseCfg(0))
	srvB, tsB := newTestNode(t, baseCfg(1))
	rt, err := NewRouter(Config{
		Shards:  [][]string{{tsA.URL}, {tsB.URL}},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	if _, err := rt.Ingest("fed-000000", data.Records); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*server.Server{srvA, srvB} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// One query per shard, so both shards demonstrably search.
	queries := []server.SearchRequest{
		signatureQuery(t, rt, data.Records, 0),
		signatureQuery(t, rt, data.Records, 1),
	}
	body := mustJSON(t, server.BatchSearchRequest{Queries: queries})
	resp, err := http.Post(rts.URL+"/v1/search/batch?debug=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch search status %d", resp.StatusCode)
	}
	tc := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !tc.Valid() {
		t.Fatalf("batch response carried no usable %s header: %q",
			obs.TraceHeader, resp.Header.Get(obs.TraceHeader))
	}
	var batch BatchSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.ShardsOK != 2 {
		t.Fatalf("batch answered %d/%d shards", batch.ShardsOK, batch.ShardsTotal)
	}
	if batch.TraceID != tc.TraceID {
		t.Fatalf("body trace_id %q != header trace ID %q", batch.TraceID, tc.TraceID)
	}

	// ?debug=1: one explain block per shard, none failed.
	if len(batch.Debug) != 2 {
		t.Fatalf("debug blocks %+v, want one per shard", batch.Debug)
	}
	debugShards := map[int]bool{}
	for _, d := range batch.Debug {
		if d.Error != "" {
			t.Fatalf("shard %d debug error: %s", d.Shard, d.Error)
		}
		debugShards[d.Shard] = true
	}
	if !debugShards[0] || !debugShards[1] {
		t.Fatalf("debug blocks cover shards %v, want 0 and 1", debugShards)
	}

	// ONE trace ID: every participating node retained a segment under
	// it, attached to a router span.
	segA := waitTrace(t, server.NewClient(tsA.URL), tc.TraceID)
	segB := waitTrace(t, server.NewClient(tsB.URL), tc.TraceID)
	routerSnap := waitRouterTrace(t, rt, tc.TraceID)
	for _, seg := range []obs.TraceSnapshot{segA, segB} {
		if seg.ParentSpanID == "" {
			t.Fatalf("shard segment %+v has no parent span; did not adopt the router context", seg)
		}
	}

	// The stitched tree holds the router plus both shards, span count
	// equal to the sum of the per-node segment sizes.
	want := 1 + len(routerSnap.Spans) + 1 + len(segA.Spans) + 1 + len(segB.Spans)
	st := waitStitched(t, rts.URL, tc.TraceID, 3)
	if st.ID != tc.TraceID {
		t.Fatalf("stitched ID %q, want %q", st.ID, tc.TraceID)
	}
	if len(st.Missing) != 0 {
		t.Fatalf("healthy cluster stitched with missing nodes: %v", st.Missing)
	}
	for _, node := range []string{"router", "s0/primary", "s1/primary"} {
		if !containsNode(st.Nodes, node) {
			t.Fatalf("stitched nodes %v missing %s", st.Nodes, node)
		}
	}
	if st.SpanCount != want {
		t.Fatalf("stitched span count %d, want %d (router %d + shard segments %d and %d)",
			st.SpanCount, want, 1+len(routerSnap.Spans), 1+len(segA.Spans), 1+len(segB.Spans))
	}
	if got := countStitched(st.Root); got != st.SpanCount {
		t.Fatalf("tree holds %d spans but span_count says %d", got, st.SpanCount)
	}
	if !st.Root.Critical || !hasCriticalDescendant(st.Root) {
		t.Fatal("critical path not marked on the stitched tree")
	}

	// Federation: the merged exposition validates, and the
	// instance="cluster" counter aggregates equal the per-shard sums.
	fresp, err := http.Get(rts.URL + "/metrics?federate=1")
	if err != nil {
		t.Fatal(err)
	}
	fbody, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("federate status %d: %s", fresp.StatusCode, fbody)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(fbody))
	if err != nil {
		t.Fatalf("federated exposition invalid: %v\n%s", err, fbody)
	}
	for _, name := range []string{"flows_accepted", "search_queries"} {
		wantSum := float64(srvA.Registry().Snapshot()[name] + srvB.Registry().Snapshot()[name])
		got, ok := federatedSample(fams, name, `instance="cluster"`)
		if !ok {
			t.Fatalf("federated exposition has no cluster aggregate for %s:\n%s", name, fbody)
		}
		if got != wantSum {
			t.Fatalf("cluster %s = %v, want per-shard sum %v", name, got, wantSum)
		}
	}
	if wantSum := float64(srvA.Registry().Snapshot()["flows_accepted"]); wantSum == 0 {
		t.Fatal("shard 0 accepted nothing; federation sums prove nothing")
	}
	if got := rt.Registry().Snapshot()["federate_scrape_errors"]; got != 0 {
		t.Fatalf("federate_scrape_errors = %d on a healthy cluster", got)
	}
}

// TestClusterStitchedFailoverTrace checks trace propagation across a
// failover read: with shard 0's primary dead and its follower serving
// reads, a routed batch search still yields exactly one trace ID on
// every participating node, and the stitched tree hangs the follower's
// segment (s0/f0) under the router's fan-out — with the unreachable
// primary reported in missing rather than silently dropped.
func TestClusterStitchedFailoverTrace(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(47)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 2
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	srvA, tsA := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		SnapshotDir:   t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary", Shard: 0, Shards: 2},
	})
	srvB, tsB := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		Node:          &server.Identity{Role: "primary", Shard: 1, Shards: 2},
	})
	_ = srvB

	f, err := NewFollower(FollowerConfig{
		Primary:       []string{tsA.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 8,
		Poll:          5 * time.Millisecond,
		ChunkBytes:    2048,
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
			Timeout:       5 * time.Second,
		},
		Timeout:    30 * time.Second,
		MaxRetries: -1, // fail fast against the killed primary
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	if _, err := rt.Ingest("fot-000000", data.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Flush(); err != nil {
		t.Fatal(err)
	}

	// Resolve the query signatures while everything is still alive.
	queries := []server.SearchRequest{
		signatureQuery(t, rt, data.Records, 0),
		signatureQuery(t, rt, data.Records, 1),
	}

	// Barrier: the follower must hold the primary's durable state
	// before the kill, or failover reads would answer from a gap.
	rs, err := server.NewClient(tsA.URL).ReplicationStatus()
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

	// Kill shard 0's primary; the prober marks it down (no promotion —
	// AutoPromote is unset — so reads fail over to the follower).
	tsA.Close()
	srvA.Abort()
	p := rt.Prober()
	for i := 0; i < 3; i++ {
		p.ProbeOnce()
	}
	if tgt := p.target(0); !tgt.primaryDown || tgt.freshest < 0 {
		t.Fatalf("prober state %+v, want primary down with a serving follower", tgt)
	}

	body := mustJSON(t, server.BatchSearchRequest{Queries: queries})
	resp, err := http.Post(rts.URL+"/v1/search/batch?debug=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover batch search status %d", resp.StatusCode)
	}
	tc := obs.ParseTraceContext(resp.Header.Get(obs.TraceHeader))
	if !tc.Valid() {
		t.Fatal("failover batch response carried no trace header")
	}
	var batch BatchSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.ShardsOK != 2 {
		t.Fatalf("failover batch answered %d/%d shards, want 2/2 via the follower", batch.ShardsOK, batch.ShardsTotal)
	}
	if len(batch.StaleShards) != 1 || batch.StaleShards[0].Shard != 0 {
		t.Fatalf("stale_shards %+v, want shard 0", batch.StaleShards)
	}

	// ONE trace ID on every participating node: the router, the
	// follower that served shard 0's read, and shard 1's primary.
	segF := waitTrace(t, server.NewClient(fts.URL), tc.TraceID)
	segB := waitTrace(t, server.NewClient(tsB.URL), tc.TraceID)
	routerSnap := waitRouterTrace(t, rt, tc.TraceID)
	if segF.ParentSpanID == "" || segB.ParentSpanID == "" {
		t.Fatalf("remote segments lost parentage: follower %+v, shard1 %+v", segF, segB)
	}

	want := 1 + len(routerSnap.Spans) + 1 + len(segF.Spans) + 1 + len(segB.Spans)
	st := waitStitched(t, rts.URL, tc.TraceID, 3)
	for _, node := range []string{"router", "s0/f0", "s1/primary"} {
		if !containsNode(st.Nodes, node) {
			t.Fatalf("stitched nodes %v missing %s", st.Nodes, node)
		}
	}
	if st.SpanCount != want {
		t.Fatalf("stitched span count %d, want %d", st.SpanCount, want)
	}
	// The dead primary is reported, not silently dropped.
	if len(st.Missing) != 1 || !strings.Contains(st.Missing[0], "s0/primary") {
		t.Fatalf("missing %v, want the dead s0/primary", st.Missing)
	}
	if !st.Root.Critical || !hasCriticalDescendant(st.Root) {
		t.Fatal("critical path not marked on the failover trace")
	}
	if got := rt.failoverReads.With("0").Value(); got == 0 {
		t.Fatal("failover_reads_total did not move; the trace did not cross a failover read")
	}
}
