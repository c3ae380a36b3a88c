package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsig/internal/fault"
)

// segmentConfig is crashConfig plus a cold segment tier, with a hot
// ring far smaller than the workload so compaction actually runs.
func segmentConfig(base string, capacity int) Config {
	cfg := crashConfig(filepath.Join(base, "snap"))
	cfg.StoreCapacity = capacity
	cfg.SegmentDir = filepath.Join(base, "segments")
	return cfg
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerSegmentLongHorizon is the issue's acceptance scenario: a
// node with Capacity=N ingests 5N windows, restarts without Shutdown,
// and serves deep History and windowed Search over all 5N windows
// bit-identically to an unbounded in-memory run.
func TestServerSegmentLongHorizon(t *testing.T) {
	const capacity, windows = 4, 20 // 5N closed windows plus the open tail
	cfg := segmentConfig(t.TempDir(), capacity)
	batches := crashWorkload(windows + 1)

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustIngest(t, srv1, b) // closes windows 0..windows-1
	}
	// Crash: srv1 is abandoned without Shutdown. The snapshot holds the
	// hot ring, the segments hold everything compacted out of it, the
	// WAL holds the open window's records.

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if !rec.SnapshotRestored {
		t.Fatal("snapshot not restored")
	}
	if rec.SegmentWindows != windows-capacity {
		t.Fatalf("recovery attached %d segment windows, want %d (%+v)", rec.SegmentWindows, windows-capacity, rec)
	}
	if rec.SegmentsAttached == 0 || len(rec.SegmentsQuarantined) != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != windows-1 {
		t.Fatalf("recovered window range = [%d,%d] ok=%v, want [0,%d]", lo, hi, ok, windows-1)
	}

	// Unbounded reference: the same workload, one crash-free run, a ring
	// big enough to never evict.
	refCfg := testConfig()
	refCfg.StoreCapacity = 10 * windows
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustIngest(t, ref, b)
	}

	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	c, refC := NewClient(ts.URL), NewClient(refTS.URL)

	for _, label := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
		// Deep history spans the ring AND every segment window.
		got, err := c.HistoryRange(label, HistoryQuery{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refC.HistoryRange(label, HistoryQuery{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.History) != windows {
			t.Fatalf("%s deep history = %d entries, want %d", label, len(got.History), windows)
		}
		if gj, wj := asJSON(t, got), asJSON(t, want); gj != wj {
			t.Fatalf("%s deep history diverged:\n got %s\nwant %s", label, gj, wj)
		}

		// Windowed search reaching past the ring must rank identically.
		for _, last := range []int{0, capacity + 3, windows} {
			req := SearchRequest{Label: label, K: 100, LastWindows: last}
			gotHits, err := c.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			wantHits, err := refC.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if gj, wj := asJSON(t, gotHits), asJSON(t, wantHits); gj != wj {
				t.Fatalf("%s search last=%d diverged:\n got %s\nwant %s", label, last, gj, wj)
			}
		}
	}
}

// TestServerSegmentCrashMidCompaction injects a torn segment commit
// under a live server, crashes it, and requires the reboot to serve
// every acked window: the over-capacity checkpoint is the torn
// window's only copy, and the recovered node must finish the workload
// exactly like a crash-free reference.
func TestServerSegmentCrashMidCompaction(t *testing.T) {
	t.Cleanup(fault.Reset)
	const capacity, windows = 2, 8
	cfg := segmentConfig(t.TempDir(), capacity)
	batches := crashWorkload(windows + 1)

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:4] {
		mustIngest(t, srv1, b) // closes 0..2; window 0 compacts cleanly
	}
	// The next close's compaction tears between stage and commit; the
	// checkpoint that follows snapshots the over-capacity ring.
	fault.Set("segment.commit", func() error { return errors.New("crash") })
	mustIngest(t, srv1, batches[4])
	fault.Reset()
	// Crash: abandon srv1 mid-flight.

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if len(rec.SegmentsQuarantined) != 0 {
		t.Fatalf("torn .tmp misread as a segment: %+v", rec)
	}
	entries, err := os.ReadDir(cfg.SegmentDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale staging file survived boot: %s", e.Name())
		}
	}
	// Every closed window — including the one whose compaction tore —
	// must be served from snapshot + segments.
	if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != 3 {
		t.Fatalf("recovered window range = [%d,%d] ok=%v, want [0,3]", lo, hi, ok)
	}
	for _, b := range batches[5:] {
		mustIngest(t, srv2, b)
	}
	if _, err := srv2.Flush(); err != nil {
		t.Fatal(err)
	}

	refCfg := testConfig()
	refCfg.StoreCapacity = 10 * windows
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustIngest(t, ref, b)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	c, refC := NewClient(ts.URL), NewClient(refTS.URL)
	for _, label := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
		got, err := c.HistoryRange(label, HistoryQuery{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refC.HistoryRange(label, HistoryQuery{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.History) != windows+1 {
			t.Fatalf("%s history = %d entries after recovery, want %d", label, len(got.History), windows+1)
		}
		if gj, wj := asJSON(t, got), asJSON(t, want); gj != wj {
			t.Fatalf("%s history diverged after torn compaction:\n got %s\nwant %s", label, gj, wj)
		}
	}
}

// TestHistoryHTTPParams pins the /v1/signatures/{label} query contract:
// from/to bounds, the default limit, explicit limit=0 as unbounded,
// the truncation flag, and 400s on malformed parameters.
func TestHistoryHTTPParams(t *testing.T) {
	const windows = 6
	_, c, done := newTestServer(t, testConfig())
	defer done()
	for _, b := range crashWorkload(windows + 1) {
		if _, err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	const label = "10.0.0.1"

	// Default: everything (the archive is far under DefaultHistoryLimit),
	// no truncation flag.
	resp, err := c.History(label)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.History) != windows || resp.Truncated {
		t.Fatalf("default query = %d entries truncated=%v, want %d/false", len(resp.History), resp.Truncated, windows)
	}

	// limit keeps the NEWEST matches, ascending, and reports the cut.
	resp, err = c.HistoryRange(label, HistoryQuery{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.History) != 2 || !resp.Truncated ||
		resp.History[0].Window != windows-2 || resp.History[1].Window != windows-1 {
		t.Fatalf("limit=2 query = %s", asJSON(t, resp))
	}

	// Inclusive from/to bounds.
	from, to := 1, 3
	resp, err = c.HistoryRange(label, HistoryQuery{From: from, HasFrom: true, To: to, HasTo: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.History) != 3 || resp.Truncated ||
		resp.History[0].Window != from || resp.History[2].Window != to {
		t.Fatalf("from/to query = %s", asJSON(t, resp))
	}

	// Limit -1 sends limit=0: explicitly unbounded.
	resp, err = c.HistoryRange(label, HistoryQuery{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.History) != windows || resp.Truncated {
		t.Fatalf("unbounded query = %d entries truncated=%v", len(resp.History), resp.Truncated)
	}

	// Malformed parameters are rejected, not silently defaulted.
	base := strings.TrimSuffix(c.Base, "/")
	for _, query := range []string{"limit=-1", "limit=abc", "from=xyz", "to=1.5"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/signatures/%s?%s", base, label, query))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s status = %d, want 400", query, resp.StatusCode)
		}
	}

	// Unknown labels still 404 (bounds that match nothing do too).
	if _, err := c.History("10.9.9.9"); err == nil {
		t.Fatal("unknown label served history")
	}
}
