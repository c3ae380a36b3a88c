package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/obs"
)

// TestMetricsJSONSupersetAndProm: the exposition GET /metrics serves
// carries every counter and gauge the retired flat-JSON body keyed,
// with the registry's values, and the serving stack's histogram
// families — the per-route request histogram is the only HTTP one, and
// its fold stands in for the old request-latency keys. A ?format=prom
// left in a scrape config gets the same body.
func TestMetricsJSONSupersetAndProm(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotDir = t.TempDir() + "/snap" // exercise WAL + snapshot histograms
	s, c, done := newTestServer(t, cfg)
	defer done()

	// Ingest across a window boundary (WAL append, window close,
	// checkpoint) and run one search so every layer observes something.
	if _, err := c.Ingest(append(window0Flows(),
		flowAt("10.0.0.1", "e1", time.Hour+time.Minute, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 3, MaxDist: 0.9}); err != nil {
		t.Fatal(err)
	}

	fams, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	m := obs.Totals(fams)
	snap := s.Registry().Snapshot()
	// The flat body's scalar keys, every one still a family.
	legacy := []string{
		"flows_received", "flows_accepted", "flows_dropped", "flows_rejected",
		"windows_closed", "search_queries", "history_queries", "anomaly_queries",
		"watchlist_adds", "watchlist_hits", "http_requests_total", "http_errors_total",
		"uptime_seconds",
		"snapshot_saves", "snapshot_errors", "snapshot_quarantines",
		"wal_appended_records", "wal_replayed_records", "wal_resets",
		"wal_errors", "wal_quarantines", "ingest_throttled", "batches_deduped",
		"store_windows",
	}
	for _, k := range legacy {
		got, ok := m[k]
		if !ok {
			t.Errorf("exposition lost family %q", k)
		} else if k != "uptime_seconds" && got != snap[k] {
			t.Errorf("%s = %d in the exposition, %d in the registry", k, got, snap[k])
		}
	}
	if m["flows_received"] != 6 || m["windows_closed"] != 1 || m["search_queries"] != 1 {
		t.Fatalf("counters off: %v", m)
	}

	types := make(map[string]string, len(fams))
	var routes obs.Family
	for _, f := range fams {
		types[f.Name] = f.Type
		if f.Name == "http_route_seconds" {
			routes = f
		}
	}
	for _, name := range []string{
		"http_route_seconds", "wal_fsync_seconds",
		"store_snapshot_save_seconds", "pipeline_window_close_seconds",
		"store_search_probes", "distmat_row_seconds", "distmat_candidates",
	} {
		if types[name] != "histogram" {
			t.Errorf("family %s = %q, want histogram", name, types[name])
		}
	}
	for name, typ := range types {
		if typ == "histogram" && strings.HasPrefix(name, "http_") && name != "http_route_seconds" {
			t.Errorf("second HTTP latency histogram %s; fold http_route_seconds instead", name)
		}
	}
	// The fold of the route histogram replaces request_micros_sum and
	// the route_*_requests keys: the ingest and the search (a scrape is
	// observed after its body is written).
	if h := routes.Histogram(); h.Sum <= 0 || h.Count != 2 {
		t.Fatalf("folded route histogram = %+v, want the 2 requests before the scrape", h)
	}
	if got := routeCount(fams, "post_v1_flows"); got != 1 {
		t.Fatalf("post_v1_flows count = %v, want 1", got)
	}

	resp, err := http.Get(c.Base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := obs.ParseExposition(resp.Body); err != nil || resp.Header.Get("Content-Type") != obs.ContentType {
		t.Fatalf("?format=prom: %v, Content-Type %q", err, resp.Header.Get("Content-Type"))
	}
}

// TestReadyzLifecycle: ready while serving, 503 with a reason once
// shutdown begins.
func TestReadyzLifecycle(t *testing.T) {
	s, c, done := newTestServer(t, testConfig())
	defer done()

	ready, err := c.Ready()
	if err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || len(ready.Reasons) != 0 {
		t.Fatalf("fresh server not ready: %+v", ready)
	}

	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c.MaxRetries = -1 // 503 is retryable; the probe should see it at once
	if _, err := c.Ready(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("draining server still ready: %v", err)
	}
	resp := s.readiness()
	if resp.Ready || len(resp.Reasons) == 0 {
		t.Fatalf("readiness after shutdown = %+v", resp)
	}
}

// TestTracesEndpoint: ingest and search traces land in the ring with
// their spans, newest first, bounded by the configured capacity; a
// closing batch's spans come in the order its steps run.
func TestTracesEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.TraceCapacity = 4
	_, c, done := newTestServer(t, cfg)
	defer done()

	for i := 0; i < 5; i++ {
		if _, err := c.Ingest(window0Flows()); err != nil {
			t.Fatal(err)
		}
	}
	// Cross the window boundary so the searched label is archived.
	if _, err := c.Ingest([]netflow.Record{flowAt("10.9.9.9", "e9", time.Hour+time.Minute, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(SearchRequest{Label: "10.0.0.1", K: 1, MaxDist: 0.99}); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Traces(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total != 7 {
		t.Fatalf("total traces = %d, want 7", tr.Total)
	}
	if len(tr.Traces) != 4 {
		t.Fatalf("ring holds %d traces, want capacity 4", len(tr.Traces))
	}
	if tr.Traces[0].Name != "search" {
		t.Fatalf("newest trace = %q, want search", tr.Traces[0].Name)
	}
	if tr.Traces[1].Name != "ingest" || len(tr.Traces[1].ID) != 16 {
		t.Fatalf("trace 1 = %+v", tr.Traces[1])
	}
	var spanNames []string
	for _, sp := range tr.Traces[1].Spans {
		spanNames = append(spanNames, sp.Name)
	}
	// A closing batch: the records before the close, the extraction
	// inside the pipeline, the window's archiving, the checkpoint, the
	// records after the close and the batch-end commit.
	want := []string{"lock.wait", "pipeline.ingest", "window.extract", "window.commit", "checkpoint", "pipeline.ingest", "wal.append"}
	if !reflect.DeepEqual(spanNames, want) {
		t.Fatalf("spans of a closing batch = %v, want %v", spanNames, want)
	}

	if got, err := c.Traces(2); err != nil || len(got.Traces) != 2 {
		t.Fatalf("Traces(2) = %+v, %v", got, err)
	}
}

// TestSlowOpLogsWithTraceID: a traced span over the threshold emits a
// structured warning carrying its trace ID through the configured
// slog logger.
func TestSlowOpLogsWithTraceID(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	cfg.SlowOp = time.Nanosecond // everything is slow
	_, c, done := newTestServer(t, cfg)
	defer done()

	if _, err := c.Ingest(window0Flows()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow operation") || !strings.Contains(out, "trace=") {
		t.Fatalf("no slow-op warning with trace ID:\n%s", out)
	}
}

func TestRouteName(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/v1/flows", "post_v1_flows"},
		{"GET", "/v1/signatures/10.0.0.1", "get_v1_signatures_label"},
		{"GET", "/metrics", "get_metrics"},
		{"GET", "/readyz", "get_readyz"},
		{"GET", "/secret/../../etc", "other"},
	} {
		r := httptest.NewRequest(tc.method, "http://x"+tc.path, nil)
		if got := routeName(r); got != tc.want {
			t.Errorf("routeName(%s %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}
