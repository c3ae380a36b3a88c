package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

// fuzzNode boots the node FuzzSearchRequest (internal/server) searches:
// three local hosts, two of them twins, over one closed window.
func fuzzNode(f *testing.F) *server.Server {
	t0 := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	srv, err := server.New(server.Config{
		Stream: stream.Config{
			WindowSize: time.Hour,
			Origin:     t0,
			Classify:   netflow.PrefixClassifier("10."),
			TCPOnly:    true,
			K:          5,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 1024, Depth: 4, Candidates: 64, Seed: 1},
		},
		StoreCapacity: 8,
		WatchMaxDist:  server.Float64(0.9),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Abort)
	flow := func(src, dst string, offset time.Duration, sessions int) netflow.Record {
		return netflow.Record{Src: src, Dst: dst, Start: t0.Add(offset), Sessions: sessions, Proto: netflow.TCP}
	}
	if res := srv.IngestBatch("", []netflow.Record{
		flow("10.0.0.1", "e1", 0, 3),
		flow("10.0.0.1", "e2", time.Minute, 1),
		flow("10.0.0.2", "e1", 2*time.Minute, 3),
		flow("10.0.0.2", "e2", 3*time.Minute, 1),
		flow("10.0.0.3", "e9", 4*time.Minute, 2),
		flow("10.0.0.1", "e1", time.Hour, 1),
	}); res.WindowsClosed != 1 {
		f.Fatalf("window 0 did not close: %+v", res)
	}
	return srv
}

// FuzzRoutedSearchRequest sends arbitrary bodies to POST /v1/search
// (batch false) and POST /v1/search/batch (batch true) on a node and on
// a one-shard router in front of a twin of it, both built once: a
// search changes neither. The router's status must be the node's and
// never a 5xx, and a 200 body the node's once the coverage and debug
// blocks are removed (withoutCoverage).
func FuzzRoutedSearchRequest(f *testing.F) {
	node := fuzzNode(f)
	shard := httptest.NewServer(fuzzNode(f).Handler())
	f.Cleanup(shard.Close)
	rt, err := NewRouter(Config{Shards: [][]string{{shard.URL}}, Timeout: 10 * time.Second, MaxRetries: -1})
	if err != nil {
		f.Fatal(err)
	}

	var seeds []server.SearchRequest
	latest, none := 0, -1
	for _, q := range []server.SearchRequest{
		{Label: "10.0.0.1", K: 3, AsOf: &latest},
		{Label: "10.0.0.2", AsOf: &none},
		{Label: "10.9.9.9", AsOf: &latest},
		{Signature: &server.SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1}}, AsOf: &none},
		{Label: "10.0.0.1", K: 3, MaxDist: 0.9},
		{Signature: &server.SignatureJSON{Nodes: []string{"e1", "e2", "never-seen"}, Weights: []float64{3, 1, 1}}, K: 2},
		{Label: "10.0.0.3", K: 5, LastWindows: 1},
		{Label: "10.0.0.2", K: 4, ExcludeLabel: "10.0.0.1"},
		{Label: "10.0.0.1", K: 2, Distance: "dice", Debug: true},
		{Label: "10.9.9.9"},
		{Label: "10.0.0.1", Signature: &server.SignatureJSON{}},
		{},
		{Signature: &server.SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1, 2}}},
		{Signature: &server.SignatureJSON{Nodes: []string{"nobody-talks-to-this"}, Weights: []float64{1}}, MaxDist: 0.5},
		{Signature: &server.SignatureJSON{Nodes: []string{"e1", "e9"}, Weights: []float64{1e308, 1e-308}}, K: 1 << 40, Distance: "shel"},
	} {
		seeds = append(seeds, q)
		f.Add(mustMarshal(f, q), false)
	}
	f.Add(mustMarshal(f, server.BatchSearchRequest{Queries: seeds}), true)
	f.Add(mustMarshal(f, server.BatchSearchRequest{Distance: "dice", Queries: seeds[:5]}), true)
	f.Add(mustMarshal(f, server.BatchSearchRequest{Distance: "nope", Queries: seeds[:1]}), true)
	for _, body := range []string{`{"signature":{"nodes":["e1"],"weights":[1]},"k":1} x`, `{}`, `]`, `{"queries":[]}`, `{"k":-3,"max_dist":-1,"label":"10.0.0.1"}`} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		path := "/v1/search"
		if batch {
			path = "/v1/search/batch"
		}
		answer := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		want, got := answer(node.Handler()), answer(rt.Handler())
		if got.Code != want.Code || got.Code >= 500 {
			t.Fatalf("%s %q: router %d (%s), node %d (%s)", path, body, got.Code, got.Body, want.Code, want.Body)
		}
		if got.Code != http.StatusOK {
			return
		}
		if g, w := withoutCoverage(t, got.Body.Bytes()), withoutCoverage(t, want.Body.Bytes()); g != w {
			t.Fatalf("%s %q:\nrouter %s\nnode   %s", path, body, g, w)
		}
	})
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
