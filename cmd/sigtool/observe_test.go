package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

func TestObservePollsMetrics(t *testing.T) {
	srv, err := server.New(server.Config{
		Stream: stream.Config{
			WindowSize: time.Hour,
			K:          4,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 256, Depth: 3, Candidates: 16, Seed: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var buf strings.Builder
	cfg := config{addr: ts.URL, interval: time.Millisecond, samples: 3}
	if err := runObserve(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Fatalf("observe printed %d lines, want 3:\n%s", lines, out)
	}
	// First sample is absolute, later ones are rates; every line carries
	// the latency quantiles.
	if !strings.Contains(out, "observe: flows=") || !strings.Contains(out, "flows/s=") {
		t.Fatalf("missing absolute and rate renderings:\n%s", out)
	}
	if strings.Count(out, "p99=") != 3 {
		t.Fatalf("missing quantile column:\n%s", out)
	}

	cfg.samples = 0
	if err := runObserve(cfg, &buf); err == nil {
		t.Fatal("samples=0 accepted")
	}
}

func TestRenderObserveLineRates(t *testing.T) {
	prev := map[string]int64{"flows_accepted": 100, "http_requests_total": 10}
	cur := map[string]int64{
		"flows_accepted": 300, "http_requests_total": 20,
		"windows_closed": 2, "http_errors_total": 1,
		"http_request_p50_micros": 40, "http_request_p90_micros": 90,
		"http_request_p99_micros": 400,
	}
	line := renderObserveLine(cur, prev, 2*time.Second)
	for _, want := range []string{"flows/s=100", "req/s=5.0", "windows=2", "errors=1", "p50=40us", "p99=400us"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	// A single-node snapshot carries no cluster metrics: no suffix.
	if strings.Contains(line, "lag[") || strings.Contains(line, "promotions=") {
		t.Fatalf("cluster suffix on a non-cluster line: %q", line)
	}
	// And no search traffic yet: no search suffix either.
	if strings.Contains(line, "searches=") {
		t.Fatalf("search suffix on an idle line: %q", line)
	}
	// An untiered node carries no segment counters: no segment suffix.
	if strings.Contains(line, "segs=") {
		t.Fatalf("segment suffix on an untiered line: %q", line)
	}
}

// TestRenderObserveLineSegmentSuffix: a tiered node's snapshot grows the
// cold-tier columns; errors and quarantines only appear when nonzero.
func TestRenderObserveLineSegmentSuffix(t *testing.T) {
	cur := map[string]int64{
		"store_segment_files":   4,
		"store_segment_windows": 9,
		"store_segment_loads":   12,
		"store_segment_pruned":  2,
	}
	line := renderObserveLine(cur, nil, 0)
	for _, want := range []string{"segs=4", "cold=9", "seg_reads=12", "seg_pruned=2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "seg_errors=") {
		t.Fatalf("error column on a healthy line: %q", line)
	}

	cur["store_segment_errors"] = 1
	cur["store_segment_quarantines"] = 1
	line = renderObserveLine(cur, nil, 0)
	if !strings.Contains(line, "seg_errors=1 seg_quarantined=1") {
		t.Fatalf("line %q missing error columns", line)
	}
}

// TestRenderObserveLineSearchSuffix: a snapshot with search traffic
// grows the query/batch columns, including the batch route's
// average latency from its per-route histogram.
func TestRenderObserveLineSearchSuffix(t *testing.T) {
	cur := map[string]int64{
		"search_queries":                        40,
		"batch_searches":                        3,
		"route_post_v1_search_batch_requests":   3,
		"route_post_v1_search_batch_micros_sum": 900,
	}
	line := renderObserveLine(cur, nil, 0)
	for _, want := range []string{"searches=40", "batches=3", "batch_avg=300us"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

// TestRenderObserveLineClusterSuffix: a router snapshot with replication
// and failover metrics grows the per-shard lag / failover-read /
// promotion columns, sorted by shard for a stable layout.
func TestRenderObserveLineClusterSuffix(t *testing.T) {
	cur := map[string]int64{
		"replica_lag_bytes_1":      2048,
		"replica_lag_bytes_0":      512,
		"replica_behind_seconds_0": 3,
		"failover_reads_total_0":   4,
		"failover_reads_total_1":   1,
		"promotions_total":         1,
	}
	line := renderObserveLine(cur, nil, 0)
	for _, want := range []string{"lag[0]=512B/3s", "lag[1]=2048B", "failover_reads=5", "promotions=1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if strings.Index(line, "lag[0]") > strings.Index(line, "lag[1]") {
		t.Fatalf("shard columns not sorted: %q", line)
	}
}
