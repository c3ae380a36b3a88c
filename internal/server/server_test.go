package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

var testT0 = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

func testConfig() Config {
	return Config{
		Stream: stream.Config{
			WindowSize: time.Hour,
			Origin:     testT0,
			Classify:   netflow.PrefixClassifier("10."),
			TCPOnly:    true,
			K:          5,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 1024, Depth: 4, Candidates: 64, Seed: 1},
		},
		StoreCapacity: 8,
		WatchMaxDist:  Float64(0.9),
	}
}

func flowAt(src, dst string, offset time.Duration, sessions int) netflow.Record {
	return netflow.Record{
		Src: src, Dst: dst, Start: testT0.Add(offset),
		Sessions: sessions, Proto: netflow.TCP,
	}
}

// window0Flows gives two local hosts identical behaviour (a twin pair)
// and a third its own.
func window0Flows() []netflow.Record {
	return []netflow.Record{
		flowAt("10.0.0.1", "e1", 0, 3),
		flowAt("10.0.0.1", "e2", time.Minute, 1),
		flowAt("10.0.0.2", "e1", 2*time.Minute, 3),
		flowAt("10.0.0.2", "e2", 3*time.Minute, 1),
		flowAt("10.0.0.3", "e9", 4*time.Minute, 2),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, NewClient(ts.URL), ts.Close
}

func TestServerIngestQueryWatchlistAnomalies(t *testing.T) {
	_, c, done := newTestServer(t, testConfig())
	defer done()

	// Window 0 plus one window-1 record to close it.
	res, err := c.Ingest(append(window0Flows(),
		flowAt("10.0.0.1", "e1", time.Hour+time.Minute, 2),
		flowAt("10.0.0.3", "e8", time.Hour+2*time.Minute, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 7 || res.WindowsClosed != 1 || res.CurrentWindow != 1 {
		t.Fatalf("ingest result = %+v", res)
	}

	// History of a window-0 source.
	hist, err := c.History("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.History) != 1 || hist.History[0].Window != 0 {
		t.Fatalf("history = %+v", hist)
	}
	sig := hist.History[0].Signature
	if len(sig.Nodes) != 2 || sig.Nodes[0] != "e1" {
		t.Fatalf("signature = %+v", sig)
	}
	if _, err := c.History("10.9.9.9"); err == nil || !strings.Contains(err.Error(), "no archived") {
		t.Fatalf("unknown history error = %v", err)
	}

	// Search by label finds the twin.
	sr, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 3, MaxDist: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Distance != "jaccard" || len(sr.Hits) == 0 || sr.Hits[0].Label != "10.0.0.2" || sr.Hits[0].Dist != 0 {
		t.Fatalf("search = %+v", sr)
	}
	// Search by inline signature, with a distance override and a member
	// label the server has never seen.
	sr, err = c.Search(SearchRequest{
		Signature: &SignatureJSON{Nodes: []string{"e1", "e2", "never-seen"}, Weights: []float64{3, 1, 1}},
		K:         2, Distance: "dice",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Distance != "dice" || len(sr.Hits) != 2 {
		t.Fatalf("inline search = %+v", sr)
	}
	// Error paths.
	if _, err := c.Search(SearchRequest{}); err == nil {
		t.Fatal("empty search accepted")
	}
	if _, err := c.Search(SearchRequest{Label: "10.0.0.1", Signature: &SignatureJSON{}}); err == nil {
		t.Fatal("label+signature search accepted")
	}
	if _, err := c.Search(SearchRequest{Label: "10.0.0.1", Distance: "nope"}); err == nil {
		t.Fatal("unknown distance accepted")
	}

	// Watch 10.0.0.2's archived window-0 signature, then close window 1:
	// 10.0.0.1 behaves like it there, so screening must record hits for
	// both twins (10.0.0.2 is silent in window 1).
	wa, err := c.WatchlistAdd(WatchlistAddRequest{Individual: "case-7", Label: "10.0.0.2"})
	if err != nil {
		t.Fatal(err)
	}
	if wa.Archived != 1 || wa.Total != 1 {
		t.Fatalf("watchlist add = %+v", wa)
	}
	if _, err := c.WatchlistAdd(WatchlistAddRequest{Individual: "x", Label: "10.9.9.9"}); err == nil {
		t.Fatal("watchlist add of unknown label accepted")
	}
	// Window-2 record closes window 1.
	if _, err := c.Ingest([]netflow.Record{flowAt("10.0.0.3", "e8", 2*time.Hour, 1)}); err != nil {
		t.Fatal(err)
	}
	hits, err := c.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits.Hits {
		if h.Individual == "case-7" && h.Label == "10.0.0.1" && h.Window == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a case-7 hit on 10.0.0.1, got %+v", hits.Hits)
	}

	// Anomalies between windows 0 and 1: 10.0.0.3 changed (e9 → e8),
	// the twins persisted or vanished.
	an, err := c.Anomalies(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if an.FromWindow != 0 || an.ToWindow != 1 {
		t.Fatalf("anomaly windows = %+v", an)
	}
	anomalous := false
	for _, a := range an.Anomalies {
		if a.Label == "10.0.0.3" {
			anomalous = true
		}
	}
	if !anomalous {
		t.Fatalf("10.0.0.3 not flagged: %+v", an.Anomalies)
	}

	// Health and metrics are consistent with what was sent.
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Ingested != 8 || h.Windows != 2 || h.CurrentWindow != 2 {
		t.Fatalf("health = %+v", h)
	}
	m := metricTotals(t, c)
	if m["flows_received"] != 8 || m["flows_accepted"] != 8 || m["windows_closed"] != 2 {
		t.Fatalf("metrics = %v", m)
	}
	if m["flows_accepted"]+m["flows_dropped"]+m["flows_rejected"] != m["flows_received"] {
		t.Fatalf("flow counters inconsistent: %v", m)
	}
	if m["http_errors_total"] == 0 {
		t.Fatalf("error-path requests not counted: %v", m)
	}

	// A UDP record under TCPOnly is dropped, not accepted.
	res, err = c.Ingest([]netflow.Record{{
		Src: "10.0.0.1", Dst: "e1", Start: testT0.Add(2*time.Hour + time.Minute),
		Sessions: 1, Proto: netflow.UDP,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Accepted != 0 {
		t.Fatalf("udp ingest = %+v", res)
	}
	// A regressing record is rejected with detail.
	res, err = c.Ingest([]netflow.Record{flowAt("10.0.0.1", "e1", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || len(res.Errors) != 1 {
		t.Fatalf("regressing ingest = %+v", res)
	}
}

// TestServerSearchBatch: POST /v1/search/batch answers every slot
// exactly as the equivalent single POST /v1/search would, carries
// per-slot errors without failing the batch, and enforces the
// one-batch-one-distance rule.
func TestServerSearchBatch(t *testing.T) {
	_, c, done := newTestServer(t, testConfig())
	defer done()
	if _, err := c.Ingest(append(window0Flows(),
		flowAt("10.0.0.1", "e1", time.Hour+time.Minute, 2),
		flowAt("10.0.0.3", "e8", time.Hour+2*time.Minute, 2),
		flowAt("10.0.0.3", "e8", 2*time.Hour, 1))); err != nil {
		t.Fatal(err)
	}

	queries := []SearchRequest{
		{Label: "10.0.0.1", K: 3, MaxDist: 0.9},
		{Signature: &SignatureJSON{Nodes: []string{"e1", "e2", "never-seen"}, Weights: []float64{3, 1, 1}}, K: 2},
		{Label: "10.0.0.3", K: 5, LastWindows: 1},
		{Label: "10.0.0.2", K: 4, ExcludeLabel: "10.0.0.1"},
	}
	batch, err := c.SearchBatch(BatchSearchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Distance != "jaccard" || len(batch.Results) != len(queries) {
		t.Fatalf("batch = %+v", batch)
	}
	for i, q := range queries {
		single, err := c.Search(q)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		if batch.Results[i].Error != "" {
			t.Fatalf("slot %d errored: %s", i, batch.Results[i].Error)
		}
		if got, want := fmt.Sprintf("%+v", batch.Results[i].Hits), fmt.Sprintf("%+v", single.Hits); got != want {
			t.Fatalf("slot %d diverged:\nbatch:  %s\nsingle: %s", i, got, want)
		}
	}

	// Per-slot failures ride alongside good slots without failing the
	// call: unknown label, label+signature, neither, a distance that
	// disagrees with the batch's, a malformed signature.
	mixed := []SearchRequest{
		{Label: "10.0.0.1", K: 2},
		{Label: "10.9.9.9"},
		{Label: "10.0.0.1", Signature: &SignatureJSON{}},
		{},
		{Label: "10.0.0.1", Distance: "dice"},
		{Signature: &SignatureJSON{Nodes: []string{"e1"}, Weights: []float64{1, 2}}},
	}
	res, err := c.SearchBatch(BatchSearchRequest{Queries: mixed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Error != "" || len(res.Results[0].Hits) == 0 {
		t.Fatalf("good slot = %+v", res.Results[0])
	}
	for i := 1; i < len(mixed); i++ {
		if res.Results[i].Error == "" {
			t.Fatalf("bad slot %d carried no error: %+v", i, res.Results[i])
		}
		if len(res.Results[i].Hits) != 0 {
			t.Fatalf("bad slot %d carried hits: %+v", i, res.Results[i])
		}
	}

	// A batch-level distance applies to every slot; slots naming the
	// same distance explicitly are fine.
	dres, err := c.SearchBatch(BatchSearchRequest{Distance: "dice", Queries: []SearchRequest{
		{Label: "10.0.0.1", K: 2},
		{Label: "10.0.0.1", K: 2, Distance: "dice"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dsingle, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 2, Distance: "dice"})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Distance != "dice" {
		t.Fatalf("batch distance = %q", dres.Distance)
	}
	for i := range dres.Results {
		if got, want := fmt.Sprintf("%+v", dres.Results[i].Hits), fmt.Sprintf("%+v", dsingle.Hits); got != want {
			t.Fatalf("dice slot %d diverged:\nbatch:  %s\nsingle: %s", i, got, want)
		}
	}

	// Whole-call errors: an empty batch, an unknown batch distance.
	if _, err := c.SearchBatch(BatchSearchRequest{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.SearchBatch(BatchSearchRequest{Distance: "nope",
		Queries: []SearchRequest{{Label: "10.0.0.1"}}}); err == nil {
		t.Fatal("unknown batch distance accepted")
	}

	// Batch accounting: one batch_searches tick per decoded call (the
	// unknown-distance refusal counts, the empty batch does not), one
	// search_queries tick per slot.
	m := metricTotals(t, c)
	if m["batch_searches"] != 4 {
		t.Fatalf("batch_searches = %d, want 4", m["batch_searches"])
	}
	if m["search_queries"] < int64(len(queries)+len(mixed)+2) {
		t.Fatalf("search_queries = %d, want at least %d", m["search_queries"], len(queries)+len(mixed)+2)
	}
	fams, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if routeCount(fams, "post_v1_search_batch") == 0 {
		t.Fatal("batch route not in the per-route histogram family")
	}
}

// TestServerConcurrentIngestAndQuery hammers the HTTP surface from
// many goroutines under -race: one writer advancing windows, several
// readers searching, listing history and scraping metrics while labels
// are being interned.
func TestServerConcurrentIngestAndQuery(t *testing.T) {
	_, c, done := newTestServer(t, testConfig())
	defer done()

	// Seed window 0 and close it so readers always have data.
	if _, err := c.Ingest(append(window0Flows(),
		flowAt("10.0.0.1", "e1", time.Hour, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchlistAdd(WatchlistAddRequest{Individual: "case-1", Label: "10.0.0.1"}); err != nil {
		t.Fatal(err)
	}

	const batches = 30
	var wg sync.WaitGroup
	wg.Add(1 + 3)
	go func() { // writer: advance one window per batch, new labels as it goes
		defer wg.Done()
		for b := 0; b < batches; b++ {
			off := time.Duration(b+1)*time.Hour + time.Minute
			batch := []netflow.Record{
				flowAt("10.0.0.1", "e1", off, 2),
				flowAt("10.0.0.2", "e2", off+time.Minute, 1),
				flowAt("10.0.1.9", newLabel("fresh", b), off+2*time.Minute, 1),
				flowAt(newLabel("10.0.2.", b), "e1", off+3*time.Minute, 1),
			}
			if _, err := c.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0:
					if _, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 5, MaxDist: 1}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.History("10.0.0.1"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := c.Metrics(); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.WatchlistHits(); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := c.Health(); err != nil {
						t.Error(err)
						return
					}
					// Inline-signature searches intern new labels
					// concurrently with ingestion.
					if _, err := c.Search(SearchRequest{
						Signature: &SignatureJSON{
							Nodes:   []string{"e1", newLabel("probe", r*100+i)},
							Weights: []float64{1, 1},
						},
						K: 3,
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	m := metricTotals(t, c)
	if m["flows_accepted"] == 0 || m["windows_closed"] == 0 || m["search_queries"] == 0 {
		t.Fatalf("metrics after hammering = %v", m)
	}
	if m["flows_accepted"]+m["flows_dropped"]+m["flows_rejected"] != m["flows_received"] {
		t.Fatalf("flow counters inconsistent: %v", m)
	}
}

// metricTotals fetches GET /metrics through c and maps every counter
// and gauge family to its value.
func metricTotals(t *testing.T, c *Client) map[string]int64 {
	t.Helper()
	fams, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return obs.Totals(fams)
}

// routeCount reads the per-route latency histogram's count of one route
// from a parsed exposition.
func routeCount(fams []obs.Family, route string) float64 {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == "http_route_seconds_count" && s.Label("route") == route {
				return s.Value
			}
		}
	}
	return 0
}

func newLabel(prefix string, i int) string {
	return prefix + "-" + time.Duration(i).String()
}
