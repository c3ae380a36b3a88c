package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// TestRouterLabelResolveSkipsColdTier: resolving a label to its latest
// signature asks the owner shard for the newest entry only, so with a
// cold tier behind the shard and a non-empty signature in the hot ring
// no segment block is read — for a single routed search and for the
// label slots of a routed batch alike.
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

// TestRouterLabelResolvePagesPastEmptySignatures: when the newest
// archived signature of a label is empty the router pages back through
// the owner's history, newest first, until one is not — and searches
// with exactly that one.
func TestRouterLabelResolvePagesPastEmptySignatures(t *testing.T) {
	sig := func(nodes ...string) server.SignatureJSON {
		return server.SignatureJSON{Nodes: nodes, Weights: make([]float64, len(nodes))}
	}
	// Windows 9 and 8 are empty; 7 is the answer; 6 must not be chosen.
	pages := map[string]server.HistoryResponse{
		"limit=1": {Truncated: true, History: []server.HistoryEntryJSON{{Window: 9}}},
		"limit=4&to=8": {Truncated: true, History: []server.HistoryEntryJSON{
			{Window: 5, Signature: sig("stale")}, {Window: 6, Signature: sig("older")}, {Window: 7, Signature: sig("latest")}, {Window: 8},
		}},
	}
	var mu sync.Mutex
	var asked []string
	var searched server.SearchRequest
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/signatures/{label}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, r.URL.RawQuery)
		page, ok := pages[r.URL.RawQuery]
		mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"unexpected page"}`, http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(page)
	})
	mux.HandleFunc("POST /v1/search/batch", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		var batch server.BatchSearchRequest
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil || len(batch.Queries) != 1 {
			http.Error(w, fmt.Sprintf(`{"error":"want one slot: %v"}`, err), http.StatusBadRequest)
			return
		}
		searched = batch.Queries[0]
		slot := server.BatchSearchResult{Hits: []server.SearchHitJSON{}}
		if searched.Label != "" { // as a node answers a label it holds no signature of
			slot = server.BatchSearchResult{Error: fmt.Sprintf("label %q has no archived signature", searched.Label)}
		}
		_ = json.NewEncoder(w).Encode(server.BatchSearchResponse{Distance: "jaccard", Results: []server.BatchSearchResult{slot}})
	})
	shard := httptest.NewServer(mux)
	defer shard.Close()
	rt, err := NewRouter(Config{Shards: [][]string{{shard.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Search(context.Background(), server.SearchRequest{Label: "10.0.0.1", K: 3}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"limit=1", "limit=4&to=8"}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("history pages asked = %v, want %v", asked, want)
	}
	if searched.Signature == nil || !reflect.DeepEqual(searched.Signature.Nodes, []string{"latest"}) ||
		searched.ExcludeLabel != "10.0.0.1" || searched.Label != "" {
		t.Fatalf("shard searched with %+v", searched)
	}

	// Nothing but empty signatures, and nothing older: an error, not a loop.
	mu.Lock()
	pages = map[string]server.HistoryResponse{"limit=1": {History: []server.HistoryEntryJSON{{Window: 9}}}}
	mu.Unlock()
	if _, err := rt.Search(context.Background(), server.SearchRequest{Label: "10.0.0.1"}); err == nil {
		t.Fatal("label with only empty signatures resolved")
	}
}

// TestRouterBatchResolvesEachLabelOnce: a routed batch resolves each
// distinct label of its label slots once, at its owner: a batch naming
// one label five times plus a label of the other shard costs two owner
// reads, and every slot answers as the same single search does.
func TestRouterBatchResolvesEachLabelOnce(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(31)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 120
	gcfg.Communities = 2
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 2
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	var urls [][]string
	for s := 0; s < 2; s++ {
		srv, err := server.New(server.Config{Stream: testStreamConfig(gcfg), StoreCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/signatures/") {
				reads.Add(1)
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); srv.Abort() })
		urls = append(urls, []string{ts.URL})
	}
	rt, err := NewRouter(Config{Shards: urls, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Ingest(context.Background(), "all", data.Records); err != nil {
		t.Fatal(err)
	}
	repeated := datagen.LocalLabel(0)
	other := ""
	for i := 1; other == ""; i++ {
		if l := datagen.LocalLabel(i); rt.Ring().Shard(l) != rt.Ring().Shard(repeated) {
			other = l
		}
	}
	var batch server.BatchSearchRequest
	for k := 1; k <= 5; k++ {
		batch.Queries = append(batch.Queries, server.SearchRequest{Label: repeated, K: k})
	}
	batch.Queries = append(batch.Queries, server.SearchRequest{Label: other, K: 3})

	reads.Store(0)
	resp, err := rt.SearchBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := reads.Load(); got != 2 {
		t.Fatalf("the batch cost %d owner reads, want 2", got)
	}
	for i, q := range batch.Queries {
		single, err := rt.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustJSON(t, resp.Results[i].Hits), mustJSON(t, single.Hits); resp.Results[i].Error != "" || got != want {
			t.Fatalf("slot %d (%s): %s %s, single search %s", i, q.Label, resp.Results[i].Error, got, want)
		}
	}
}
