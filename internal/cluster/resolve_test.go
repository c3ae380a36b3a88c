package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// TestRouterLabelResolveSkipsColdTier: the owner shard resolves a
// label to its latest signature newest window first, so with a cold
// tier behind the shard and a non-empty signature in the hot ring no
// segment block is read — for a single routed search and for the label
// slots of a routed batch alike.
func TestRouterLabelResolveSkipsColdTier(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(23)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 120
	gcfg.Communities = 2
	gcfg.Windows = 7
	gcfg.MultiusageIndividuals = 2
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	const hot = 2
	var clients []*server.Client
	var urls [][]string
	for s := 0; s < 2; s++ {
		_, ts := newTestNode(t, server.Config{
			Stream:        testStreamConfig(gcfg),
			StoreCapacity: hot,
			SegmentDir:    filepath.Join(t.TempDir(), "segments"),
		})
		clients = append(clients, server.NewClient(ts.URL))
		urls = append(urls, []string{ts.URL})
	}
	rt, err := NewRouter(Config{Shards: urls, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Ingest(context.Background(), "all", data.Records); err != nil {
		t.Fatal(err)
	}
	segmentLoads := func() (loads, coldWindows int64) {
		t.Helper()
		for _, c := range clients {
			fams, err := c.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			m := obs.Totals(fams)
			loads += m["store_segment_loads"]
			coldWindows += m["store_segment_windows"]
		}
		return loads, coldWindows
	}
	before, cold := segmentLoads()
	if cold == 0 {
		t.Fatal("no shard compacted a window: the test has no cold tier to skip")
	}

	// LastWindows stays inside the hot ring, so the scans themselves
	// never reach a segment: any load below is the resolution's.
	labels := []string{datagen.LocalLabel(0), datagen.LocalLabel(1), datagen.LocalLabel(2)}
	var batch server.BatchSearchRequest
	for _, label := range labels {
		req := server.SearchRequest{Label: label, K: 5, LastWindows: hot}
		resp, err := rt.Search(context.Background(), req)
		if err != nil || len(resp.Hits) == 0 {
			t.Fatalf("routed search %s: %+v, %v", label, resp, err)
		}
		batch.Queries = append(batch.Queries, req)
	}
	bresp, err := rt.SearchBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range bresp.Results {
		if r.Error != "" || len(r.Hits) == 0 {
			t.Fatalf("routed batch slot %d: %+v", i, r)
		}
	}
	if after, _ := segmentLoads(); after != before {
		t.Fatalf("label resolution read %d segment blocks", after-before)
	}
}

// labelWorld is a router over two shards that count the searches they
// answer, and a reference node fed the same records.
type labelWorld struct {
	gcfg     datagen.EnterpriseConfig
	records  []netflow.Record
	rt       *Router
	ref      *server.Server
	shards   []*server.Server
	calls    [2]atomic.Int64
	barriers []string // a local label of each shard's
	next     int      // windows fed past the generated ones
}

func newLabelWorld(tb testing.TB, gcfg datagen.EnterpriseConfig) *labelWorld {
	tb.Helper()
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := &labelWorld{gcfg: gcfg, records: data.Records}
	boot := func() *server.Server {
		srv, err := server.New(server.Config{Stream: testStreamConfig(gcfg), StoreCapacity: 8})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(srv.Abort)
		return srv
	}
	var urls [][]string
	for s := range w.calls {
		srv := boot()
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/flows" {
				w.calls[s].Add(1)
			}
			srv.Handler().ServeHTTP(rw, r)
		}))
		tb.Cleanup(ts.Close)
		w.shards = append(w.shards, srv)
		urls = append(urls, []string{ts.URL})
	}
	if w.rt, err = NewRouter(Config{Shards: urls, Timeout: 30 * time.Second}); err != nil {
		tb.Fatal(err)
	}
	for s := range w.shards {
		for i := 0; len(w.barriers) == s; i++ {
			if l := fmt.Sprintf("10.9.0.%d", i); w.rt.Ring().Shard(l) == s {
				w.barriers = append(w.barriers, l)
			}
		}
	}
	w.ref = boot()
	w.feed(tb, data.Records, false)
	return w
}

// feed sends records, then one barrier record a shard a window after
// them, which closes their window everywhere: through the router, or,
// with bypass, straight to the shards, as a writer the router does not
// see would. The reference node is sent the same.
func (w *labelWorld) feed(tb testing.TB, records []netflow.Record, bypass bool) {
	tb.Helper()
	start := w.gcfg.Origin.Add(time.Duration(w.gcfg.Windows+w.next) * w.gcfg.WindowLength)
	records = slices.Clip(records)
	for _, b := range w.barriers {
		records = append(records, netflow.Record{Src: b, Dst: "198.51.100.1", Start: start, Sessions: 1, Proto: netflow.TCP})
	}
	parts := map[*server.Server][]netflow.Record{w.ref: records}
	if !bypass {
		if _, err := w.rt.Ingest(context.Background(), "", records); err != nil {
			tb.Fatal(err)
		}
	} else {
		for _, r := range records {
			srv := w.shards[w.rt.Ring().Shard(r.Src)]
			parts[srv] = append(parts[srv], r)
		}
	}
	for srv, part := range parts {
		if res := srv.IngestBatch("", part); len(res.Errors) > 0 || res.WindowsClosed == 0 {
			tb.Fatalf("%+v", res)
		}
	}
}

// closeNext feeds the last generated window's records once more, a
// window after the newest (feed), so that every label of it has a
// newer signature.
func (w *labelWorld) closeNext(tb testing.TB, bypass bool) {
	tb.Helper()
	w.next++
	last := w.gcfg.Origin.Add(time.Duration(w.gcfg.Windows-1) * w.gcfg.WindowLength)
	var records []netflow.Record
	for _, r := range w.records {
		if !r.Start.Before(last) {
			r.Start = r.Start.Add(time.Duration(w.next) * w.gcfg.WindowLength)
			records = append(records, r)
		}
	}
	w.feed(tb, records, bypass)
}

// shardCalls is the searches the shards have answered.
func (w *labelWorld) shardCalls() int64 { return w.calls[0].Load() + w.calls[1].Load() }

// resolves reads the router's search_label_resolves_total by outcome.
func (w *labelWorld) resolves(tb testing.TB) map[string]float64 {
	var text bytes.Buffer
	if err := w.rt.Registry().WritePrometheus(&text); err != nil {
		tb.Fatal(err)
	}
	fams, err := obs.ParseExposition(&text)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if f.Name == "search_label_resolves_total" {
				out[s.Label("outcome")] += s.Value
			}
		}
	}
	return out
}

// TestRouterLabelSearchShardCalls: a routed label search costs one
// call a shard when the router's cache holds the label's latest
// signature (a hit), one a shard over two hops when it holds none (a
// miss), and one more a non-owner when a window close the router did
// not see archived a newer one (stale). Once the router has seen the
// owner close a window, its cached signature goes to the other shards
// only after the owner checked it: a stale entry then costs one call a
// shard too. Every answer is the reference node's, as is every slot of
// a batch naming one label five times.
func TestRouterLabelSearchShardCalls(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(31)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 120
	gcfg.Communities = 2
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 2
	w := newLabelWorld(t, gcfg)
	label := datagen.LocalLabel(0)
	search := func(outcome string, calls int64) {
		t.Helper()
		before, counted := w.shardCalls(), w.resolves(t)[outcome]
		req := server.SearchRequest{Label: label, K: 5}
		got, err := w.rt.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.ref.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if routed, node := mustJSON(t, got.Hits), mustJSON(t, want.Hits); routed != node {
			t.Errorf("%s: routed %s, the node %s", outcome, routed, node)
		}
		if n := w.shardCalls() - before; n != calls {
			t.Errorf("%s: %d shard calls, want %d", outcome, n, calls)
		}
		if n := w.resolves(t)[outcome] - counted; n != 1 {
			t.Errorf("%s counted %v times", outcome, n)
		}
	}
	for s := range w.calls {
		if w.rt.closes[s].Load() == 0 {
			t.Fatalf("shard %d closed windows under the routed ingest, and the router counted none", s)
		}
	}
	search("miss", 2)
	search("hit", 2)
	w.closeNext(t, true)
	search("stale", 3)
	search("hit", 2)
	w.closeNext(t, false)
	search("stale", 2)
	search("hit", 2)

	other := ""
	for i := 1; other == ""; i++ {
		if l := datagen.LocalLabel(i); w.rt.Ring().Shard(l) != w.rt.Ring().Shard(label) {
			other = l
		}
	}
	var batch server.BatchSearchRequest
	for k := 1; k <= 5; k++ {
		batch.Queries = append(batch.Queries, server.SearchRequest{Label: label, K: k})
	}
	batch.Queries = append(batch.Queries, server.SearchRequest{Label: other, K: 3})
	resp, err := w.rt.SearchBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range batch.Queries {
		single, err := w.ref.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustJSON(t, resp.Results[i].Hits), mustJSON(t, single.Hits); resp.Results[i].Error != "" || got != want {
			t.Fatalf("slot %d (%s): %s %s, the node %s", i, q.Label, resp.Results[i].Error, got, want)
		}
	}
}

// TestRouterLabelSearchConcurrent: searches from several goroutines
// share the router's signature cache while routed ingest closes windows
// beside them; none fails, and once the feed stops every label answers
// as the reference node does.
func TestRouterLabelSearchConcurrent(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(37)
	gcfg.LocalHosts = 16
	gcfg.ExternalHosts = 120
	gcfg.Communities = 2
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 2
	w := newLabelWorld(t, gcfg)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := server.SearchRequest{Label: datagen.LocalLabel(i % gcfg.LocalHosts), K: 5}
				if _, err := w.rt.Search(context.Background(), req); err != nil && server.Status(err) != http.StatusNotFound {
					t.Errorf("search %s: %v", req.Label, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		w.closeNext(t, i%2 == 0)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < gcfg.LocalHosts; i++ {
		req := server.SearchRequest{Label: datagen.LocalLabel(i), K: 5}
		got, gerr := w.rt.Search(context.Background(), req)
		want, werr := w.ref.Search(context.Background(), req)
		if server.Status(gerr) != server.Status(werr) || mustJSON(t, got.Hits) != mustJSON(t, want.Hits) {
			t.Fatalf("%s: routed %v %v, the node %v %v", req.Label, got.Hits, gerr, want.Hits, werr)
		}
	}
}
