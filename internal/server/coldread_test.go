package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/netflow"
)

// TestServerColdReadFailureIs5xx: a segment block that rots after boot
// is the server's failure, not the client's. Label search, batch search
// with a label slot, a signature search that reaches the cold tier and
// deep history all answer 500 and tick store_segment_errors; an unknown
// label stays a 404 and requests served from the hot ring keep working.
func TestServerColdReadFailureIs5xx(t *testing.T) {
	cfg := segmentConfig(t.TempDir(), 2)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10.0.0.9 talks in windows 0–2 only: by the time window 5 closes its
	// latest signature exists in the cold tier alone.
	for w := 0; w < 7; w++ {
		off := time.Duration(w) * time.Hour
		batch := []netflow.Record{
			flowAt("10.0.0.1", fmt.Sprintf("e%d", w), off, 3),
			flowAt("10.0.0.1", "e-stable", off+time.Minute, 1),
		}
		if w < 3 {
			batch = append(batch, flowAt("10.0.0.9", "e-stable", off+2*time.Minute, 2))
		}
		mustIngest(t, srv, batch)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	gone := SearchRequest{Label: "10.0.0.9", K: 3}
	if _, err := c.Search(gone); err != nil {
		t.Fatalf("before the rot: %v", err)
	}

	files, err := filepath.Glob(filepath.Join(cfg.SegmentDir, "*.seg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("segment files: %v, %v", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[40] ^= 0x01 // inside the first block, past the header line
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	status := func(what string, err error, want int) {
		t.Helper()
		if got := APIStatus(err); got != want {
			t.Fatalf("%s: status %d (%v), want %d", what, got, err, want)
		}
	}
	_, err = c.Search(gone)
	status("label search resolving through a rotten block", err, http.StatusInternalServerError)
	_, err = c.SearchBatch(BatchSearchRequest{Queries: []SearchRequest{{Label: "10.0.0.1", K: 3, LastWindows: 2}, gone}})
	status("batch search with such a label slot", err, http.StatusInternalServerError)
	_, err = c.Search(SearchRequest{Label: "10.0.0.1", K: 3})
	status("label search scanning the whole archive", err, http.StatusInternalServerError)
	_, err = c.Search(SearchRequest{Signature: &SignatureJSON{Nodes: []string{"e-stable"}, Weights: []float64{1}}})
	status("signature search scanning the whole archive", err, http.StatusInternalServerError)
	_, err = c.HistoryRange("10.0.0.9", HistoryQuery{Limit: -1})
	status("deep history", err, http.StatusInternalServerError)

	_, err = c.Search(SearchRequest{Label: "10.9.9.9"})
	status("unknown label", err, http.StatusNotFound)
	// A batch whose every slot fails to resolve searches nothing, so it
	// reads no cold block and answers its slots' errors.
	loads := metricTotals(t, c)["store_segment_loads"]
	resp, err := c.SearchBatch(BatchSearchRequest{Queries: []SearchRequest{{Label: "10.9.9.9"}}})
	if want := `label "10.9.9.9" has no archived signature`; err != nil || len(resp.Results) != 1 || resp.Results[0].Error != want {
		t.Fatalf("batch of an unknown label: %+v, %v; want a 200 with the slot error %q", resp, err, want)
	}
	if got := metricTotals(t, c)["store_segment_loads"]; got != loads {
		t.Fatalf("a batch with no query to search loaded %d segment blocks", got-loads)
	}
	if _, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 3, LastWindows: 2}); err != nil {
		t.Fatalf("hot-ring search: %v", err)
	}
	m := metricTotals(t, c)
	if m["store_segment_errors"] < 5 {
		t.Fatalf("store_segment_errors = %d after five failed cold reads", m["store_segment_errors"])
	}
}
