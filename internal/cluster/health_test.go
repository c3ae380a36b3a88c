package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// testFlowRecords builds n minimal TCP records for routing tests that
// only care about transport behavior, not pipeline semantics.
func testFlowRecords(n int) []netflow.Record {
	origin := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]netflow.Record, n)
	for i := range out {
		out[i] = netflow.Record{
			Src:      fmt.Sprintf("10.1.0.%d", i%9),
			Dst:      fmt.Sprintf("ext-%d.example", i%4),
			Start:    origin.Add(time.Duration(i) * time.Second),
			Duration: 100 * time.Millisecond,
			Sessions: 1,
			Bytes:    512,
			Packets:  4,
			Proto:    netflow.TCP,
		}
	}
	return out
}

// fakePrimary is a scriptable /readyz + /v1/replication/status endpoint
// for prober tests.
type fakePrimary struct {
	up      atomic.Bool
	gen     atomic.Int64
	durable atomic.Int64
}

func (fp *fakePrimary) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !fp.up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(server.ReadyResponse{Ready: true})
	})
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.ReplicationStatusResponse{
			Replicating: true,
			Gen:         int(fp.gen.Load()),
			DurableSize: fp.durable.Load(),
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// fakeFollower is a scriptable /v1/follower/status endpoint.
type fakeFollower struct {
	gen        atomic.Int64
	off        atomic.Int64
	progressed atomic.Bool
	promoted   atomic.Bool
	promotes   atomic.Int64
}

func (ff *fakeFollower) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/follower/status", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(FollowerStatusResponse{
			Gen:        int(ff.gen.Load()),
			Offset:     ff.off.Load(),
			Progressed: ff.progressed.Load(),
			Serving:    true,
			Promoted:   ff.promoted.Load(),
		})
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		ff.promotes.Add(1)
		ff.promoted.Store(true)
		_ = json.NewEncoder(w).Encode(PromoteResponse{Promoted: true})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestProberStateMachine walks one primary through
// Healthy→Suspect→Down→Healthy with deterministic ProbeOnce rounds and
// checks the routing view and freshest-follower selection at each stop.
func TestProberStateMachine(t *testing.T) {
	fp := &fakePrimary{}
	fp.up.Store(true)
	fp.gen.Store(2)
	fp.durable.Store(9000)
	pts := fp.serve(t)

	lag, fresh := &fakeFollower{}, &fakeFollower{}
	lag.gen.Store(1)
	lag.off.Store(500)
	fresh.gen.Store(2)
	fresh.off.Store(8000)
	lts, fts := lag.serve(t), fresh.serve(t)

	rt, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{lts.URL, fts.URL}},
		Health: &HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 3,
			Cooldown:      time.Millisecond,
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Prober()

	p.ProbeOnce()
	tgt := p.target(0)
	if tgt.primaryDown || tgt.promoted >= 0 {
		t.Fatalf("healthy view %+v", tgt)
	}
	if tgt.freshest != 1 || tgt.gen != 2 || tgt.off != 8000 {
		t.Fatalf("freshest selection %+v, want follower 1 at (2,8000)", tgt)
	}
	// Same-generation byte lag is published for the freshest follower.
	if got := p.lagBytes.With("0").Value(); got != 1000 {
		t.Fatalf("replica_lag_bytes = %d, want 1000", got)
	}

	// Two failures: Suspect, still routing to the primary.
	fp.up.Store(false)
	p.ProbeOnce()
	p.ProbeOnce()
	if tgt := p.target(0); tgt.primaryDown {
		t.Fatalf("suspect primary already marked down: %+v", tgt)
	}
	// Third consecutive failure crosses the threshold.
	p.ProbeOnce()
	if tgt := p.target(0); !tgt.primaryDown {
		t.Fatalf("primary not down after threshold: %+v", tgt)
	}
	if got := p.probeFails.With("s0/primary").Value(); got != 3 {
		t.Fatalf("probe_failures for primary = %d, want 3", got)
	}
	// Healthy→Suspect and Suspect→Down.
	if got := p.transitions.With("s0/primary").Value(); got != 2 {
		t.Fatalf("transitions for primary = %d, want 2", got)
	}

	// One success walks straight back to Healthy.
	fp.up.Store(true)
	p.ProbeOnce()
	if tgt := p.target(0); tgt.primaryDown {
		t.Fatalf("recovered primary still down: %+v", tgt)
	}

	// The membership view renders on the router's debug route.
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	resp, err := http.Get(rts.URL + "/v1/cluster/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ch ClusterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	if !ch.Enabled || len(ch.Endpoints) != 3 {
		t.Fatalf("cluster health %+v, want enabled with 3 endpoints", ch)
	}
	if ch.Endpoints[0].Endpoint != "s0/primary" || ch.Endpoints[0].State != "healthy" {
		t.Fatalf("primary endpoint %+v", ch.Endpoints[0])
	}
}

// TestProberAutoPromote: a primary down past the grace period gets its
// freshest serving follower promoted exactly once; further rounds see
// the promoted node and do not re-POST.
func TestProberAutoPromote(t *testing.T) {
	fp := &fakePrimary{} // never up
	pts := fp.serve(t)
	ff := &fakeFollower{}
	ff.gen.Store(1)
	ff.off.Store(100)
	fts := ff.serve(t)

	rt, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{fts.URL}},
		Health: &HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 2,
			Cooldown:      time.Millisecond,
			AutoPromote:   time.Millisecond,
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Prober()
	p.ProbeOnce()
	p.ProbeOnce() // threshold reached: Down, downSince = now
	if ff.promotes.Load() != 0 {
		t.Fatal("promotion issued before the grace period")
	}
	time.Sleep(5 * time.Millisecond) // let the grace period elapse
	p.ProbeOnce()
	if got := ff.promotes.Load(); got != 1 {
		t.Fatalf("promotions POSTed = %d, want 1", got)
	}
	if tgt := p.target(0); tgt.promoted != 0 {
		t.Fatalf("prober view after promotion %+v, want promoted=0", tgt)
	}
	p.ProbeOnce()
	p.ProbeOnce()
	if got := ff.promotes.Load(); got != 1 {
		t.Fatalf("promotion re-POSTed: %d calls", got)
	}
	if got := rt.Registry().Snapshot()["promotions_total"]; got != 1 {
		t.Fatalf("promotions_total = %d, want 1", got)
	}
	// Reads and writes both route to the promoted follower now.
	if c, stale := rt.readClient(0); c != rt.followers[0][0] || stale != nil {
		t.Fatal("readClient does not prefer the promoted follower")
	}
	if c := rt.writeClient(0); c != rt.followers[0][0] {
		t.Fatal("writeClient does not prefer the promoted follower")
	}
}

// TestProberSkipsNeverProgressedFollower: a follower whose replication
// cursor has never advanced reports the same zeroed staleness shape as
// one that just advanced — and an operator start-gen misconfiguration
// can even make it report the highest generation. It must lose the
// freshest-target election to any sibling with real progress, and be
// chosen only when no progressed sibling exists.
func TestProberSkipsNeverProgressedFollower(t *testing.T) {
	fp := &fakePrimary{} // never up: reads fail over to followers
	pts := fp.serve(t)
	blank, replicated := &fakeFollower{}, &fakeFollower{}
	// The blank follower has never fetched a byte but was started with a
	// too-high generation; naive (gen, offset) ordering would elect it.
	blank.gen.Store(7)
	replicated.gen.Store(2)
	replicated.off.Store(4000)
	replicated.progressed.Store(true)
	bts, rts := blank.serve(t), replicated.serve(t)

	rt, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{bts.URL, rts.URL}},
		Health: &HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 1,
			Cooldown:      time.Millisecond,
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rt.Prober()
	p.ProbeOnce()
	tgt := p.target(0)
	if !tgt.primaryDown {
		t.Fatalf("primary not down: %+v", tgt)
	}
	if tgt.freshest != 1 || tgt.gen != 2 || tgt.off != 4000 {
		t.Fatalf("freshest = %+v, want the progressed follower 1 at (2,4000)", tgt)
	}

	// With no progressed sibling the never-progressed follower stays
	// eligible: an empty cluster's followers are all vacuously fresh.
	rt2, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{bts.URL}},
		Health: &HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 1,
			Cooldown:      time.Millisecond,
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	p2 := rt2.Prober()
	p2.ProbeOnce()
	if tgt := p2.target(0); tgt.freshest != 0 {
		t.Fatalf("lone never-progressed follower not eligible: %+v", tgt)
	}
}

// TestRouterIngestHonorsRetryAfter: a shard that sheds load with 429 +
// Retry-After must not fail the routed sub-batch — the router waits out
// the advertised pacing and re-sends.
func TestRouterIngestHonorsRetryAfter(t *testing.T) {
	var throttles atomic.Int64
	throttles.Store(2)
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/flows" {
			http.NotFound(w, r)
			return
		}
		posts.Add(1)
		if throttles.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"throttled"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"received":1,"accepted":1}`)
	}))
	defer ts.Close()

	rt, err := NewRouter(Config{
		Shards:     [][]string{{ts.URL}},
		Timeout:    10 * time.Second,
		MaxRetries: -1, // isolate the router's own throttle loop
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Ingest(context.Background(), "ra-1", testFlowRecords(1))
	if err != nil {
		t.Fatalf("throttled ingest failed: %v", err)
	}
	if res.Accepted != 1 || res.ShardsOK != 1 {
		t.Fatalf("ingest result %+v", res)
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("shard saw %d posts, want 3 (two 429s + success)", got)
	}
	if got := rt.Registry().Snapshot()["ingest_throttle_retries"]; got != 2 {
		t.Fatalf("ingest_throttle_retries = %d, want 2", got)
	}
}

// TestNewRouterRefusesExtraFollowers: a follower list past the last
// shard names a replica nothing would probe or read, so the router
// refuses it instead of dropping it.
func TestNewRouterRefusesExtraFollowers(t *testing.T) {
	shards := [][]string{{"http://127.0.0.1:1"}}
	if _, err := NewRouter(Config{Shards: shards, Followers: [][]string{{"http://127.0.0.1:2"}}}); err != nil {
		t.Fatalf("one follower list per shard: %v", err)
	}
	if _, err := NewRouter(Config{Shards: shards, Followers: [][]string{{"http://127.0.0.1:2"}, {"http://127.0.0.1:3"}}}); err == nil {
		t.Fatal("a second follower list for one shard accepted")
	}
}

// TestClusterRouterRefusesShardAddressLists: a shard is its one
// primary. A second address for it is a follower, whose answers the
// router must mark stale, or another primary, which would split the
// shard's writes; either way it belongs in Followers, and the refusal
// says so.
func TestClusterRouterRefusesShardAddressLists(t *testing.T) {
	for _, shards := range [][][]string{
		{{}},
		{{"http://127.0.0.1:1", "http://127.0.0.1:2"}},
		{{"http://127.0.0.1:1"}, {"http://127.0.0.1:2", "http://127.0.0.1:3"}},
	} {
		_, err := NewRouter(Config{Shards: shards})
		if err == nil || !strings.Contains(err.Error(), "Followers") {
			t.Errorf("shards %v: err %v, want a refusal naming Followers", shards, err)
		}
	}
	if _, err := NewRouter(Config{Shards: [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:2"}}}); err != nil {
		t.Fatalf("one address per shard: %v", err)
	}
}

// TestClusterFollowerRefusesPrimaryLists: a follower tails exactly one
// primary.
func TestClusterFollowerRefusesPrimaryLists(t *testing.T) {
	for _, primary := range [][]string{nil, {"http://127.0.0.1:1", "http://127.0.0.1:2"}} {
		if _, err := NewFollower(FollowerConfig{Primary: primary}); err == nil {
			t.Errorf("primary %v accepted", primary)
		}
	}
	if _, err := NewFollower(FollowerConfig{Primary: []string{"http://127.0.0.1:1"}}); err != nil {
		t.Fatalf("one primary: %v", err)
	}
}
