package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsig/internal/netflow"
)

// TestSignatureSearchKnownLabelsLeaveUniverseAlone: a signature query
// whose labels the universe already holds — every routed search is one
// — interns nothing, single or batched; nor does one with a never-seen
// label, which the search resolves without interning it
// (TestSearchInternsNoLabel).
func TestSignatureSearchKnownLabelsLeaveUniverseAlone(t *testing.T) {
	s, c, done := newTestServer(t, testConfig())
	defer done()
	if _, err := c.Ingest(append(window0Flows(), flowAt("10.0.0.1", "e1", time.Hour, 1))); err != nil {
		t.Fatal(err)
	}
	u := s.Store().Universe()
	before := u.Size()
	known := &SignatureJSON{Nodes: []string{"e1", "e2"}, Weights: []float64{3, 1}}
	if resp, err := c.Search(SearchRequest{Signature: known, K: 3}); err != nil || len(resp.Hits) == 0 {
		t.Fatalf("known-label search: %+v, %v", resp, err)
	}
	if _, err := c.SearchBatch(BatchSearchRequest{Queries: []SearchRequest{
		{Signature: known, K: 3}, {Label: "10.0.0.1"}, {Signature: &SignatureJSON{Nodes: []string{"e9"}, Weights: []float64{1}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := u.Size(); got != before {
		t.Fatalf("known-label signature searches grew the universe %d -> %d", before, got)
	}
	fresh := &SignatureJSON{Nodes: []string{"e1", "never-seen"}, Weights: []float64{1, 1}}
	if _, err := c.Search(SearchRequest{Signature: fresh, K: 3}); err != nil {
		t.Fatal(err)
	}
	if got := u.Size(); got != before {
		t.Fatalf("one unseen label: universe %d -> %d", before, got)
	}
}

// TestSearchZeroHitsSerializeAsEmptyArray: a search nothing answers
// still carries "hits": [] on the wire, never null.
func TestSearchZeroHitsSerializeAsEmptyArray(t *testing.T) {
	s, c, done := newTestServer(t, testConfig())
	defer done()
	if _, err := c.Ingest(append(window0Flows(), flowAt("10.0.0.1", "e1", time.Hour, 1))); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/search",
		strings.NewReader(`{"signature":{"nodes":["nobody-talks-to-this"],"weights":[1]},"max_dist":0.5}`))
	s.Handler().ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Body)
	if rec.Code != http.StatusOK || !strings.Contains(string(body), `"hits":[]`) {
		t.Fatalf("zero-hit search: status %d body %s", rec.Code, body)
	}
}

// TestConcurrentSignatureSearchesBesideIngest runs single and batched
// signature searches — labels known and never seen — from several
// goroutines while a writer closes windows and interns new labels; the
// race detector checks the read-locked scans against both.
func TestConcurrentSignatureSearchesBesideIngest(t *testing.T) {
	_, c, done := newTestServer(t, testConfig())
	defer done()
	if _, err := c.Ingest(append(window0Flows(), flowAt("10.0.0.1", "e1", time.Hour, 1))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1 + 4)
	go func() {
		defer wg.Done()
		for b := 0; b < 20; b++ {
			off := time.Duration(b+1)*time.Hour + time.Minute
			if _, err := c.Ingest([]netflow.Record{
				flowAt("10.0.0.1", "e1", off, 2),
				flowAt("10.0.0.2", newLabel("fresh", b), off+time.Minute, 1),
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sig := &SignatureJSON{Nodes: []string{"e1", "e2"}, Weights: []float64{3, 1}}
				if i%5 == 0 {
					sig.Nodes[1] = newLabel("probe", r*100+i)
				}
				if i%2 == 0 {
					resp, err := c.Search(SearchRequest{Signature: sig, K: 3})
					if err != nil || len(resp.Hits) == 0 {
						t.Errorf("search: %+v, %v", resp, err)
						return
					}
					continue
				}
				resp, err := c.SearchBatch(BatchSearchRequest{Queries: []SearchRequest{{Signature: sig, K: 3}, {Label: "10.0.0.1"}}})
				if err != nil || len(resp.Results) != 2 || resp.Results[0].Error != "" || len(resp.Results[0].Hits) == 0 {
					t.Errorf("batch: %+v, %v", resp, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
