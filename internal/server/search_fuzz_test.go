package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graphsig/internal/store"
)

// FuzzSearchRequest sends arbitrary bodies to POST /v1/search (batch
// false) and POST /v1/search/batch (batch true) on a node with one
// closed window. No body may panic or be answered 500; every status is
// 200, 400 or 404; and a 200 ranks at most k hits a query (DefaultTopK
// when k is unset), each at a distance in [0, max_dist] (1 when unset),
// in non-decreasing order. Whatever the status, the universe keeps its
// size: a search interns no label. A single search answers what the
// same query answers as the one slot of a batch (sameAsOneSlot). Every
// input gets a fresh node.
func FuzzSearchRequest(f *testing.F) {
	var seeds []SearchRequest
	latest, none := 0, -1
	for _, q := range []SearchRequest{
		{Label: "10.0.0.1", K: 3, AsOf: &latest},
		{Label: "10.0.0.2", AsOf: &none},
		{Label: "10.9.9.9", AsOf: &latest},
		{Label: "10.0.0.1", K: 3, MaxDist: 0.9},
		{Signature: &SignatureJSON{Nodes: []string{"e1", "e2", "never-seen"}, Weights: []float64{3, 1, 1}}, K: 2},
		{Label: "10.0.0.3", K: 5, LastWindows: 1},
		{Label: "10.0.0.2", K: 4, ExcludeLabel: "10.0.0.1"},
		{Label: "10.0.0.1", K: 2, Distance: "dice", Debug: true},
		{Label: "10.9.9.9"},
		{Label: "10.0.0.1", Signature: &SignatureJSON{}},
		{},
		{Signature: &SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1, 2}}},
		{Signature: &SignatureJSON{Nodes: []string{"nobody-talks-to-this"}, Weights: []float64{1}}, MaxDist: 0.5},
		{Signature: &SignatureJSON{Nodes: []string{"e1", "e9"}, Weights: []float64{1e308, 1e-308}}, K: 1 << 40, Distance: "shel"},
	} {
		seeds = append(seeds, q)
		f.Add(mustMarshal(f, q), false)
	}
	f.Add(mustMarshal(f, BatchSearchRequest{Queries: seeds}), true)
	f.Add(mustMarshal(f, BatchSearchRequest{Distance: "dice", Queries: seeds[:5]}), true)
	f.Add(mustMarshal(f, BatchSearchRequest{Distance: "nope", Queries: seeds[:1]}), true)
	for _, body := range []string{`{"signature":{"nodes":["e1"],"weights":[1]},"k":1} x`, `{}`, `]`, `{"queries":[]}`, `{"k":-3,"max_dist":-1,"label":"10.0.0.1"}`} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		srv, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res := srv.IngestBatch("", append(window0Flows(), flowAt("10.0.0.1", "e1", time.Hour, 1))); res.WindowsClosed != 1 {
			t.Fatalf("window 0 did not close: %+v", res)
		}
		path := "/v1/search"
		if batch {
			path = "/v1/search/batch"
		}
		labels := srv.Store().Universe().Size()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if got := srv.Store().Universe().Size(); got != labels {
			t.Fatalf("%s %q: status %d, and the universe grew from %d to %d labels", path, body, rec.Code, labels, got)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if !batch {
			sameAsOneSlot(t, srv, body, rec)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The handler decoded the body strictly, so a lenient decode
		// reads the same request.
		var queries []SearchRequest
		var results [][]SearchHitJSON
		if batch {
			var req BatchSearchRequest
			var resp BatchSearchResponse
			mustUnmarshal(t, body, &req)
			mustUnmarshal(t, rec.Body.Bytes(), &resp)
			if len(resp.Results) != len(req.Queries) {
				t.Fatalf("%q: %d results for %d queries", body, len(resp.Results), len(req.Queries))
			}
			queries = req.Queries
			for _, r := range resp.Results {
				results = append(results, r.Hits)
			}
		} else {
			var req SearchRequest
			var resp SearchResponse
			mustUnmarshal(t, body, &req)
			mustUnmarshal(t, rec.Body.Bytes(), &resp)
			queries, results = []SearchRequest{req}, [][]SearchHitJSON{resp.Hits}
		}
		for i, q := range queries {
			k, bound := q.K, q.MaxDist
			if k <= 0 {
				k = store.DefaultTopK
			}
			if bound <= 0 {
				bound = 1
			}
			hits := results[i]
			if len(hits) > k {
				t.Fatalf("%q: query %d: %d hits, k %d", body, i, len(hits), k)
			}
			for j, h := range hits {
				if !(h.Dist >= 0 && h.Dist <= bound) {
					t.Fatalf("%q: query %d: hit %+v outside [0, %v]", body, i, h, bound)
				}
				if j > 0 && h.Dist < hits[j-1].Dist {
					t.Fatalf("%q: query %d: hits out of order: %+v", body, i, hits)
				}
			}
		}
	})
}

// sameAsOneSlot holds single, a node's answer to body on POST
// /v1/search, to its answer to the same query sent as the one slot of
// a batch: the same hits for a 200; for a refusal, the same text in the
// slot, or the whole batch refused with that text. A body the route
// cannot decode is no query and is skipped.
func sameAsOneSlot(t *testing.T, srv *Server, body []byte, single *httptest.ResponseRecorder) {
	var req SearchRequest
	if !DecodeJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)), &req) {
		return
	}
	one := mustMarshal(t, BatchSearchRequest{Distance: req.Distance, Queries: []SearchRequest{req}, Debug: req.Debug})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(one)))
	var slot BatchSearchResult
	if rec.Code == http.StatusOK {
		var resp BatchSearchResponse
		mustUnmarshal(t, rec.Body.Bytes(), &resp)
		if len(resp.Results) != 1 {
			t.Fatalf("%q as one slot: %d results", body, len(resp.Results))
		}
		slot = resp.Results[0]
	} else {
		mustUnmarshal(t, rec.Body.Bytes(), &slot) // the batch's refusal: {"error": ...}
	}
	if single.Code == http.StatusOK {
		var resp SearchResponse
		mustUnmarshal(t, single.Body.Bytes(), &resp)
		if got, want := string(mustMarshal(t, slot.Hits)), string(mustMarshal(t, resp.Hits)); rec.Code != http.StatusOK || slot.Error != "" || got != want {
			t.Fatalf("%q: single search hits %s; as one slot: status %d, slot %+v", body, want, rec.Code, slot)
		}
		return
	}
	var refusal BatchSearchResult
	mustUnmarshal(t, single.Body.Bytes(), &refusal)
	if slot.Error != refusal.Error || (rec.Code != http.StatusOK && rec.Code != single.Code) {
		t.Fatalf("%q: single search refused %d %q; as one slot: status %d, error %q", body, single.Code, refusal.Error, rec.Code, slot.Error)
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func mustUnmarshal(tb testing.TB, data []byte, v any) {
	tb.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		tb.Fatalf("decoding %q: %v", data, err)
	}
}
