package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// routeSides names the three ways a routeWorld serves one feed.
var routeSides = [3]string{"node", "router1", "router2"}

// routeWorld is one feed served three ways: by a node, by a router in
// front of one shard and by a router in front of two.
type routeWorld struct {
	t       *testing.T
	gcfg    datagen.EnterpriseConfig
	records []netflow.Record
	watched string           // a planted multiusage label
	urls    [3]string        // parallel to routeSides
	nodes   []*server.Server // every data node of the three sides
}

func newRouteWorld(t *testing.T) *routeWorld {
	t.Helper()
	gcfg := datagen.DefaultEnterpriseConfig(29)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Communities = 3
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := data.Truth.MultiusageSets()
	if len(pairs) == 0 {
		t.Fatal("workload has no multiusage ground truth")
	}
	w := &routeWorld{t: t, gcfg: gcfg, records: data.Records, watched: pairs[0][0]}
	node := func() string {
		srv, ts := newTestNode(t, server.Config{
			Stream:        testStreamConfig(gcfg),
			StoreCapacity: 8,
			WatchMaxDist:  server.Float64(0.9),
		})
		w.nodes = append(w.nodes, srv)
		return ts.URL
	}
	router := func(shards ...string) string {
		cfg := Config{Timeout: 30 * time.Second}
		for _, s := range shards {
			cfg.Shards = append(cfg.Shards, []string{s})
		}
		rt, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	w.urls = [3]string{node(), router(node()), router(node(), node())}
	return w
}

// ingest sends records to every side in the same batches.
func (w *routeWorld) ingest(prefix string, records []netflow.Record) {
	w.t.Helper()
	const batch = 500
	for _, url := range w.urls {
		c := server.NewClient(url)
		for i := 0; i < len(records); i += batch {
			if _, err := c.IngestBatch(fmt.Sprintf("%s-%06d", prefix, i), records[i:min(i+batch, len(records))]); err != nil {
				w.t.Fatalf("ingest into %s: %v", url, err)
			}
		}
	}
}

// flush closes the open window on every data node: window close is
// lazy on a shard, so this is the barrier before a comparison.
func (w *routeWorld) flush() {
	w.t.Helper()
	for _, s := range w.nodes {
		if _, err := s.Flush(); err != nil {
			w.t.Fatal(err)
		}
	}
}

// routeCase is one request of the route table.
type routeCase struct {
	name, method, path, body string
}

// routeAnswer is one side's answer to a routeCase.
type routeAnswer struct {
	status int
	body   []byte
}

// do sends c to every side.
func (w *routeWorld) do(c routeCase) [3]routeAnswer {
	w.t.Helper()
	var out [3]routeAnswer
	for i, url := range w.urls {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		req, err := http.NewRequest(c.method, url+c.path, body)
		if err != nil {
			w.t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.t.Fatalf("%s on %s: %v", c.name, routeSides[i], err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			w.t.Fatal(err)
		}
		out[i] = routeAnswer{status: resp.StatusCode, body: bytes.TrimSpace(b)}
	}
	return out
}

// signature reads the node's newest archived signature of label and
// its window, as a JSON value.
func (w *routeWorld) signature(label string) (string, int) {
	w.t.Helper()
	hist, err := server.NewClient(w.urls[0]).History(label)
	if err != nil || len(hist.History) == 0 {
		w.t.Fatalf("history of %s: %+v, %v", label, hist, err)
	}
	e := hist.History[len(hist.History)-1]
	return mustJSON(w.t, e.Signature), e.Window
}

// run drives the route table through its phases, handing every case
// and its three answers to check in order: an empty world, the watch
// adds of a fed world, the reads once its last window closed, and an
// explicit-signature add.
func (w *routeWorld) run(check func(routeCase, [3]routeAnswer)) {
	w.t.Helper()
	do := func(cases ...routeCase) {
		for _, c := range cases {
			check(c, w.do(c))
		}
	}
	do(
		routeCase{"anomalies-empty", "GET", "/v1/anomalies", ""},
		routeCase{"hits-empty", "GET", "/v1/watchlist/hits", ""},
		routeCase{"search-empty-world", "POST", "/v1/search", `{"label":"10.0.0.1"}`},
	)

	w.ingest("feed", w.records)
	l1, l2, watched := datagen.LocalLabel(0), datagen.LocalLabel(1), w.watched
	do(
		routeCase{"watch-label", "POST", "/v1/watchlist", fmt.Sprintf(`{"individual":"case-0","label":%q}`, watched)},
		routeCase{"watch-label-window", "POST", "/v1/watchlist", fmt.Sprintf(`{"individual":"case-1","label":%q,"window":0}`, l1)},
		routeCase{"watch-no-individual", "POST", "/v1/watchlist", fmt.Sprintf(`{"label":%q}`, watched)},
		routeCase{"watch-neither", "POST", "/v1/watchlist", `{"individual":"x"}`},
		routeCase{"watch-explicit-no-window", "POST", "/v1/watchlist", `{"individual":"x","signature":{"nodes":["e"],"weights":[1]}}`},
		routeCase{"watch-unknown-label", "POST", "/v1/watchlist", `{"individual":"x","label":"no-such-host"}`},
		routeCase{"watch-bad-body", "POST", "/v1/watchlist", `{"individual":`},
	)

	w.flush()
	sig, _ := w.signature(l2)
	sig = strings.Replace(sig, `"nodes":[`, `"nodes":["never-seen",`, 1)
	sig = strings.Replace(sig, `"weights":[`, `"weights":[1,`, 1)
	batch := fmt.Sprintf(`[{"label":%q,"k":5},{"label":%q,"k":3,"last_windows":1},{"signature":%s,"k":4},`+
		`{"label":"no-such-host"},{"label":%q,"signature":%s},{"k":2},{"label":%q,"distance":"dice"},`+
		`{"label":%q,"k":4,"exclude_label":%q}]`, l1, l2, sig, l1, sig, l2, l1, l2)
	do(
		routeCase{"search-label", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":10,"max_dist":0.95}`, l1)},
		routeCase{"search-label-last", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":5,"last_windows":1}`, l2)},
		routeCase{"search-label-exclude", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":4,"exclude_label":%q}`, l1, l2)},
		routeCase{"search-signature", "POST", "/v1/search", fmt.Sprintf(`{"signature":%s,"k":5}`, sig)},
		routeCase{"search-dice", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":3,"distance":"dice"}`, l1)},
		routeCase{"search-debug", "POST", "/v1/search?debug=1", fmt.Sprintf(`{"label":%q,"k":3}`, l1)},
		routeCase{"search-debug-body", "POST", "/v1/search", fmt.Sprintf(`{"signature":%s,"k":3,"debug":true}`, sig)},
		routeCase{"search-unknown-label", "POST", "/v1/search", `{"label":"no-such-host"}`},
		routeCase{"search-unknown-distance", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"distance":"nope"}`, l1)},
		routeCase{"search-both", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"signature":%s}`, l1, sig)},
		routeCase{"search-neither", "POST", "/v1/search", `{"k":3}`},
		routeCase{"search-bad-signature", "POST", "/v1/search", `{"signature":{"nodes":["e1"],"weights":[1,2]}}`},
		routeCase{"search-no-positive", "POST", "/v1/search", `{"signature":{"nodes":["e1"],"weights":[0]}}`},
		routeCase{"search-bad-body", "POST", "/v1/search", `{"label":`},
		routeCase{"search-unknown-field", "POST", "/v1/search", `{"lable":"x"}`},

		routeCase{"batch", "POST", "/v1/search/batch", fmt.Sprintf(`{"queries":%s}`, batch)},
		routeCase{"batch-dice", "POST", "/v1/search/batch", fmt.Sprintf(`{"distance":"dice","queries":%s}`, batch)},
		routeCase{"batch-debug", "POST", "/v1/search/batch?debug=1", fmt.Sprintf(`{"queries":%s}`, batch)},
		routeCase{"batch-empty", "POST", "/v1/search/batch", `{"queries":[]}`},
		routeCase{"batch-unknown-distance", "POST", "/v1/search/batch", fmt.Sprintf(`{"distance":"nope","queries":[{"label":%q}]}`, l1)},
		routeCase{"batch-all-unresolved", "POST", "/v1/search/batch", `{"queries":[{"label":"no-such-host"}]}`},
		routeCase{"batch-all-unresolved-named", "POST", "/v1/search/batch", `{"distance":"dice","queries":[{"label":"no-such-host"}]}`},
		routeCase{"batch-over-cap", "POST", "/v1/search/batch",
			fmt.Sprintf(`{"queries":[%s{"k":1}]}`, strings.Repeat(fmt.Sprintf(`{"label":%q},`, l1), server.MaxBatchQueries))},

		routeCase{"history", "GET", "/v1/signatures/" + l1, ""},
		routeCase{"history-range", "GET", "/v1/signatures/" + l1 + "?from=1&to=2&limit=1", ""},
		routeCase{"history-unbounded", "GET", "/v1/signatures/" + watched + "?limit=0", ""},
		routeCase{"history-unknown", "GET", "/v1/signatures/no-such-host", ""},
		routeCase{"history-bad-from", "GET", "/v1/signatures/" + l1 + "?from=x", ""},
		routeCase{"history-bad-limit", "GET", "/v1/signatures/" + l1 + "?limit=-1", ""},

		routeCase{"hits", "GET", "/v1/watchlist/hits", ""},

		routeCase{"anomalies", "GET", "/v1/anomalies", ""},
		routeCase{"anomalies-z", "GET", "/v1/anomalies?z=1.5", ""},
		routeCase{"anomalies-dice", "GET", "/v1/anomalies?distance=dice", ""},
		routeCase{"anomalies-bad-z", "GET", "/v1/anomalies?z=abc", ""},
		routeCase{"anomalies-zero-z", "GET", "/v1/anomalies?z=0", ""},
		routeCase{"anomalies-unknown-distance", "GET", "/v1/anomalies?distance=nope", ""},
	)

	esig, ewin := w.signature(l1)
	do(
		routeCase{"watch-explicit", "POST", "/v1/watchlist", fmt.Sprintf(`{"individual":"case-2","window":%d,"signature":%s}`, ewin, esig)},
		routeCase{"watch-explicit-bad-signature", "POST", "/v1/watchlist", `{"individual":"x","window":0,"signature":{"nodes":["e1"],"weights":[1,2]}}`},
	)
}

var (
	maskMicros  = regexp.MustCompile(`"micros":\d+`)
	maskTraceID = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// maskRoute blanks what differs between two runs of one build: wall
// times and trace IDs.
func maskRoute(body []byte) []byte {
	body = maskMicros.ReplaceAll(body, []byte(`"micros":0`))
	return maskTraceID.ReplaceAll(body, []byte(`"trace_id":"-"`))
}

// canonHits re-encodes a node's hit log the way the golden file holds
// it; the hits are already in the order a router merges them.
func canonHits(t *testing.T, body []byte) []byte {
	var resp server.WatchlistHitsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return []byte(mustJSON(t, resp))
}

// recordRoutesGolden rewrites testdata/routes.golden from this build's
// answers instead of checking them.
const recordRoutesGolden = false

// TestClusterRoutesGolden pins the 200 bytes of every route on a node
// and on both routers of a routeWorld, a fixed feed, to
// testdata/routes.golden: one line a side and case, micros and trace
// IDs masked.
func TestClusterRoutesGolden(t *testing.T) {
	const path = "testdata/routes.golden"
	want := map[string]string{}
	if !recordRoutesGolden {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			key, body, _ := strings.Cut(sc.Text(), "\t")
			want[key] = body
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	w := newRouteWorld(t)
	w.run(func(c routeCase, ans [3]routeAnswer) {
		for i, a := range ans {
			key := routeSides[i] + " " + c.name
			if a.status != http.StatusOK {
				if _, ok := want[key]; ok {
					t.Errorf("%s: status %d, want 200: %s", key, a.status, a.body)
				}
				continue
			}
			if i == 0 && strings.HasPrefix(c.name, "hits") {
				a.body = canonHits(t, a.body)
			}
			body := string(maskRoute(a.body))
			got = append(got, key+"\t"+body)
			if wb, ok := want[key]; ok && wb != body {
				t.Errorf("%s:\n got %s\nwant %s", key, body, wb)
			}
			delete(want, key)
		}
	})
	if recordRoutesGolden {
		sort.Strings(got)
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range want {
		t.Errorf("%s: in %s, not answered", key, path)
	}
}

// withoutCoverage is a 200 body without the router's coverage block
// (shards_ok, shards_total, stale_shards, trace_id) and without the
// debug block, whose form is each side's own: a node's counters, the
// router's per-shard array.
func withoutCoverage(t *testing.T, body []byte) string {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	for _, k := range []string{"shards_ok", "shards_total", "stale_shards", "trace_id", "debug"} {
		delete(fields, k)
	}
	return mustJSON(t, fields)
}

// TestClusterRoutesMatchNode is the contract that a cluster answers as
// one node holding the union: the route table of a routeWorld sent to a
// node, a one-shard router and a two-shard router must get the same
// status everywhere, the same error text for every 4xx (the refusals
// the shared request validation makes, a body that does not decode, a
// signature every shard refuses, a label with nothing archived, an
// archive too short for anomalies), and the same 200 body once the
// coverage block is removed. Then a routed explicit-signature watchlist
// add must screen as the node's does: after one more window close, the
// merged hit logs equal the node's.
func TestClusterRoutesMatchNode(t *testing.T) {
	w := newRouteWorld(t)
	check := func(c routeCase, ans [3]routeAnswer) {
		t.Helper()
		node := ans[0]
		for i, a := range ans[1:] {
			side := routeSides[i+1]
			switch {
			case a.status != node.status:
				t.Errorf("%s: %s answered %d (%s), the node %d (%s)", c.name, side, a.status, a.body, node.status, node.body)
			case a.status >= 400 && a.status < 500 && !bytes.Equal(a.body, node.body):
				t.Errorf("%s: %s refused with %s, the node with %s", c.name, side, a.body, node.body)
			case a.status == http.StatusOK:
				if got, want := withoutCoverage(t, a.body), withoutCoverage(t, node.body); got != want {
					t.Errorf("%s: %s answered\n%s\nthe node\n%s", c.name, side, got, want)
				}
			}
		}
	}
	w.run(check)

	// The explicit add of the table's last phase screens the next
	// window close on every shard.
	next := make([]netflow.Record, 0, len(w.records))
	last := w.gcfg.Origin.Add(time.Duration(w.gcfg.Windows-1) * w.gcfg.WindowLength)
	for _, r := range w.records {
		if !r.Start.Before(last) {
			r.Start = r.Start.Add(w.gcfg.WindowLength)
			next = append(next, r)
		}
	}
	w.ingest("next", next)
	w.flush()
	hits := routeCase{"hits-after-explicit", "GET", "/v1/watchlist/hits", ""}
	ans := w.do(hits)
	check(hits, ans)

	// The routers' signatures of the labels searched above are a window
	// old now: searched again, they must answer as the node does.
	l1, l2 := datagen.LocalLabel(0), datagen.LocalLabel(1)
	for _, c := range []routeCase{
		{"search-label-after-close", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":10,"max_dist":0.95}`, l1)},
		{"search-exclude-after-close", "POST", "/v1/search", fmt.Sprintf(`{"label":%q,"k":4,"exclude_label":%q}`, l1, l2)},
		{"batch-after-close", "POST", "/v1/search/batch", fmt.Sprintf(`{"queries":[{"label":%q,"k":5},{"label":%q,"k":3,"last_windows":1},{"label":%q,"k":2}]}`, l1, l2, w.watched)},
		{"batch-as-of-after-close", "POST", "/v1/search/batch", fmt.Sprintf(`{"queries":[{"label":%q,"as_of":%d},{"label":%q,"as_of":-1},{"label":"no-such-host","as_of":-1}]}`, l1, w.gcfg.Windows-1, l2)},
	} {
		check(c, w.do(c))
	}
	for _, url := range w.urls[1:] {
		fams, err := server.NewClient(url).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if obs.Totals(fams)["search_label_resolves_total"] == 0 {
			t.Errorf("router %s resolved no label", url)
		}
		stale := 0.0
		for _, f := range fams {
			for _, smp := range f.Samples {
				if f.Name == "search_label_resolves_total" && smp.Label("outcome") == "stale" {
					stale += smp.Value
				}
			}
		}
		if stale == 0 {
			t.Errorf("router %s met no stale signature: the searches after the close did not test one", url)
		}
	}
	var resp server.WatchlistHitsResponse
	if err := json.Unmarshal(ans[0].body, &resp); err != nil {
		t.Fatal(err)
	}
	screened := false
	for _, h := range resp.Hits {
		screened = screened || h.Individual == "case-2" && h.Window == w.gcfg.Windows
	}
	if !screened {
		t.Fatalf("the explicit add screened nothing in window %d: %s", w.gcfg.Windows, ans[0].body)
	}
}

// TestClusterRoutesLaidOut: every search and history body the route
// table's 200 cases make — the requests a node and the routers read, the
// signature batches the shards read, and the history and search answers
// the routers read back from their shards — is read in its own layout,
// none of them by encoding/json (server.GeneralBodies); so is a flows
// batch Client.IngestBatch sends, at every hop, in netflow's binary
// stream.
func TestClusterRoutesLaidOut(t *testing.T) {
	w := newRouteWorld(t)
	before := server.GeneralBodies()
	w.run(func(c routeCase, ans [3]routeAnswer) {
		now := server.GeneralBodies()
		general := now - before
		before = now
		for _, a := range ans {
			if a.status != http.StatusOK {
				return
			}
		}
		if general != 0 {
			t.Errorf("%s: %d bodies left the layout on the node and the routers", c.name, general)
		}
	})
	// The count is wired: a body with a space in it leaves the layout
	// once on each side.
	before = server.GeneralBodies()
	w.do(routeCase{"search-spaced", "POST", "/v1/search", `{"label": "no-such-host"}`})
	if n := server.GeneralBodies() - before; n != 3 {
		t.Errorf("a spaced body sent to the three sides counted %d times, want 3", n)
	}

	// Ingest, outside the table: the batch Client.IngestBatch sends is
	// read in its own format on the node, on the routers and, in the
	// sub-batches the routers send the same way, on their shards; a JSON
	// body goes to encoding/json once on each side it is posted to and
	// nowhere behind the routers.
	for _, c := range []struct {
		name    string
		json    bool
		general int64
	}{{"flows-laid-out", false, 0}, {"flows-spaced", true, 3}} {
		before = server.GeneralBodies()
		if c.json {
			req := server.IngestRequest{BatchID: c.name}
			for _, r := range w.records[:50] {
				req.Records = append(req.Records, server.RecordToJSON(r))
			}
			body, err := json.MarshalIndent(req, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range w.do(routeCase{c.name, "POST", "/v1/flows", string(body)}) {
				if a.status != http.StatusOK {
					t.Fatalf("%s on %s: %d %s", c.name, routeSides[i], a.status, a.body)
				}
			}
		} else {
			for i, url := range w.urls {
				if _, err := server.NewClient(url).IngestBatch(c.name, w.records[:50]); err != nil {
					t.Fatalf("%s on %s: %v", c.name, routeSides[i], err)
				}
			}
		}
		if n := server.GeneralBodies() - before; n != c.general {
			t.Errorf("%s: sent to the three sides, counted %d times, want %d", c.name, n, c.general)
		}
	}
}

// countingTransport counts the HTTP requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterRefusalPassesThrough: a request the shared validation
// refuses is answered 400 by the router itself, before any shard
// request, so the client makes one attempt; a refusal every shard makes
// (anomalies over an empty archive, 409) reaches the client with the
// shard's status, once.
func TestClusterRefusalPassesThrough(t *testing.T) {
	srv, err := server.New(server.Config{Stream: testStreamConfig(datagen.DefaultEnterpriseConfig(3)), StoreCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	var shardRequests atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardRequests.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { shard.Close(); srv.Abort() })
	rt, err := NewRouter(Config{Shards: [][]string{{shard.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	attempts := &countingTransport{}
	c := server.NewClient(rts.URL)
	c.HTTP = &http.Client{Transport: attempts, Timeout: 10 * time.Second}

	sig := &server.SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1}}
	window := 0
	for _, tc := range []struct {
		name   string
		call   func() error
		status int
		shard  int64 // shard requests the refusal costs
	}{
		{"search-unknown-distance", func() error {
			_, err := c.Search(server.SearchRequest{Label: "10.0.0.1", Distance: "nope"})
			return err
		}, http.StatusBadRequest, 0},
		{"search-both", func() error {
			_, err := c.Search(server.SearchRequest{Label: "10.0.0.1", Signature: sig})
			return err
		}, http.StatusBadRequest, 0},
		{"search-neither", func() error {
			_, err := c.Search(server.SearchRequest{K: 3})
			return err
		}, http.StatusBadRequest, 0},
		{"search-bad-signature", func() error {
			_, err := c.Search(server.SearchRequest{Signature: &server.SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1, 2}}})
			return err
		}, http.StatusBadRequest, 0},
		{"batch-empty", func() error {
			_, err := c.SearchBatch(server.BatchSearchRequest{})
			return err
		}, http.StatusBadRequest, 0},
		{"batch-over-cap", func() error {
			_, err := c.SearchBatch(server.BatchSearchRequest{Queries: make([]server.SearchRequest, server.MaxBatchQueries+1)})
			return err
		}, http.StatusBadRequest, 0},
		{"batch-unknown-distance", func() error {
			_, err := c.SearchBatch(server.BatchSearchRequest{Distance: "nope", Queries: []server.SearchRequest{{Label: "10.0.0.1"}}})
			return err
		}, http.StatusBadRequest, 0},
		{"watch-explicit-no-window", func() error {
			_, err := c.WatchlistAdd(server.WatchlistAddRequest{Individual: "x", Signature: sig})
			return err
		}, http.StatusBadRequest, 0},
		{"watch-explicit-bad-signature", func() error {
			_, err := c.WatchlistAdd(server.WatchlistAddRequest{Individual: "x", Window: &window, Signature: &server.SignatureJSON{Nodes: []string{"e1"}}})
			return err
		}, http.StatusBadRequest, 0},
		{"anomalies-unknown-distance", func() error {
			_, err := c.Anomalies("nope", 0)
			return err
		}, http.StatusBadRequest, 0},
		{"anomalies-empty", func() error {
			_, err := c.Anomalies("", 0)
			return err
		}, http.StatusConflict, 1},
	} {
		shardRequests.Store(0)
		attempts.n.Store(0)
		err := tc.call()
		if got := server.APIStatus(err); got != tc.status {
			t.Errorf("%s: status %d (%v), want %d", tc.name, got, err, tc.status)
		}
		if got := shardRequests.Load(); got != tc.shard {
			t.Errorf("%s: %d shard requests, want %d", tc.name, got, tc.shard)
		}
		if got := attempts.n.Load(); got != 1 {
			t.Errorf("%s: %d client attempts, want 1", tc.name, got)
		}
	}
}

// TestSingleSearchIsOneSlotBatch: on a node and on both routers of a
// routeWorld, every POST /v1/search case of the route table answers
// what POST /v1/search/batch answers for its query as the one slot of a
// batch — the same hits, or the same error text, in the slot or on the
// whole batch when the batch's own validation refuses it — and the
// single route's statuses hold everywhere: 404 for a label with no
// archived signature, 400 for an inline signature every node refuses.
// A router whose label's owner is down answers that label 502, and its
// batch slot in the same words.
func TestSingleSearchIsOneSlotBatch(t *testing.T) {
	statuses := map[string]int{
		"search-empty-world":   http.StatusNotFound,
		"search-unknown-label": http.StatusNotFound,
		"search-no-positive":   http.StatusBadRequest,
	}
	errorOf := func(body []byte) string {
		var refusal struct{ Error string }
		if err := json.Unmarshal(body, &refusal); err != nil || refusal.Error == "" {
			t.Fatalf("refusal %s: %v", body, err)
		}
		return refusal.Error
	}
	compared := 0
	w := newRouteWorld(t)
	w.run(func(c routeCase, singles [3]routeAnswer) {
		path, query, _ := strings.Cut(c.path, "?")
		if path != "/v1/search" {
			return
		}
		for i, a := range singles {
			if want, ok := statuses[c.name]; ok && a.status != want {
				t.Errorf("%s on %s: status %d (%s), want %d", c.name, routeSides[i], a.status, a.body, want)
			}
		}
		var req server.SearchRequest
		if !server.DecodeJSON(httptest.NewRecorder(), httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)), &req) {
			return // no query to put in a slot
		}
		one := routeCase{c.name + "-one-slot", c.method, "/v1/search/batch?" + query,
			mustJSON(t, server.BatchSearchRequest{Distance: req.Distance, Queries: []server.SearchRequest{req}, Debug: req.Debug})}
		for i, b := range w.do(one) {
			single, side := singles[i], routeSides[i]
			var slot server.BatchSearchResult
			if b.status == http.StatusOK {
				var resp server.BatchSearchResponse
				if err := json.Unmarshal(b.body, &resp); err != nil || len(resp.Results) != 1 {
					t.Fatalf("%s on %s: %s, %v", one.name, side, b.body, err)
				}
				slot = resp.Results[0]
			} else {
				slot.Error = errorOf(b.body)
			}
			if single.status != http.StatusOK {
				if want := errorOf(single.body); slot.Error != want {
					t.Errorf("%s on %s: refused %d %q, as one slot %d %q", c.name, side, single.status, want, b.status, slot.Error)
				}
				continue
			}
			var resp server.SearchResponse
			if err := json.Unmarshal(single.body, &resp); err != nil {
				t.Fatal(err)
			}
			if got, want := mustJSON(t, slot.Hits), mustJSON(t, resp.Hits); b.status != http.StatusOK || slot.Error != "" || got != want {
				t.Errorf("%s on %s: hits %s, as one slot %d %q %s", c.name, side, want, b.status, slot.Error, got)
			}
			compared++
		}
	})
	if compared == 0 {
		t.Fatal("no search of the route table answered 200")
	}

	_, up := newTestNode(t, server.Config{Stream: testStreamConfig(w.gcfg), StoreCapacity: 8})
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	rt, err := NewRouter(Config{Shards: [][]string{{up.URL}, {down.URL}}, Timeout: 10 * time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	label := ""
	for i := 0; label == ""; i++ {
		if l := datagen.LocalLabel(i); rt.Ring().Shard(l) == 1 {
			label = l
		}
	}
	post := func(path string, body any) routeAnswer {
		resp, err := http.Post(rts.URL+path, "application/json", strings.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return routeAnswer{status: resp.StatusCode, body: b}
	}
	single := post("/v1/search", server.SearchRequest{Label: label})
	if single.status != http.StatusBadGateway {
		t.Fatalf("search of %s, owned by a down shard: status %d (%s), want 502", label, single.status, single.body)
	}
	batch := post("/v1/search/batch", server.BatchSearchRequest{Queries: []server.SearchRequest{{Label: label}}})
	var resp server.BatchSearchResponse
	if err := json.Unmarshal(batch.body, &resp); err != nil || batch.status != http.StatusOK || len(resp.Results) != 1 ||
		resp.Results[0].Error != errorOf(single.body) {
		t.Fatalf("batch of %s: %d %s (%v), want its slot to fail as the single search did: %s", label, batch.status, batch.body, err, single.body)
	}
}
