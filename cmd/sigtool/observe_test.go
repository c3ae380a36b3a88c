package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphsig/internal/obs"
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

// scrape renders reg as GET /metrics serves it and parses it back.
func scrape(t *testing.T, reg *obs.Registry) []obs.Family {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

func TestRenderObserveLineRates(t *testing.T) {
	before := obs.NewRegistry()
	before.Counter("flows_accepted", "").Add(100)
	before.Counter("http_requests_total", "").Add(10)

	reg := obs.NewRegistry()
	reg.Counter("flows_accepted", "").Add(300)
	reg.Counter("http_requests_total", "").Add(20)
	reg.Counter("windows_closed", "").Add(2)
	reg.Counter("http_errors_total", "").Add(1)
	routes := reg.HistogramVec("http_route_seconds", "", "route", nil)
	for i, v := range []float64{40e-6, 35e-6, 90e-6, 400e-6, 2e-3, 12e-6, 60e-6, 41e-6, 300e-6, 5e-6} {
		routes.With([]string{"post_v1_flows", "post_v1_search", "get_metrics"}[i%3]).Observe(v)
	}
	// The dashboard's quantiles are those of the route histograms
	// merged bucket by bucket.
	var merged obs.HistSnapshot
	for _, route := range routes.Labels() {
		snap := routes.With(route).Snapshot()
		if merged.Counts == nil {
			merged = obs.HistSnapshot{Bounds: snap.Bounds, Counts: make([]uint64, len(snap.Counts))}
		}
		for i, c := range snap.Counts {
			merged.Counts[i] += c
		}
		merged.Count += snap.Count
	}

	line := renderObserveLine(scrape(t, reg), scrape(t, before), 2*time.Second)
	want := []string{"flows/s=100", "req/s=5.0", "windows=2", "errors=1"}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		want = append(want, fmt.Sprintf(" %s=%dus", q.name, int64(merged.Quantile(q.q)*1e6)))
	}
	for _, w := range want {
		if !strings.Contains(line, w) {
			t.Fatalf("line %q missing %q", line, w)
		}
	}
	// A single-node scrape carries no cluster metrics: no suffix.
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

// TestRenderObserveLineSegmentSuffix: a tiered node's scrape grows the
// cold-tier columns; errors and quarantines only appear when nonzero.
func TestRenderObserveLineSegmentSuffix(t *testing.T) {
	reg := obs.NewRegistry()
	reg.GaugeFunc("store_segment_files", "", func() int64 { return 4 })
	reg.GaugeFunc("store_segment_windows", "", func() int64 { return 9 })
	reg.Counter("store_segment_loads", "").Add(12)
	reg.Counter("store_segment_pruned", "").Add(2)
	line := renderObserveLine(scrape(t, reg), nil, 0)
	for _, want := range []string{"segs=4", "cold=9", "seg_reads=12", "seg_pruned=2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "seg_errors=") {
		t.Fatalf("error column on a healthy line: %q", line)
	}

	reg.Counter("store_segment_errors", "").Add(1)
	reg.Counter("store_segment_quarantines", "").Add(1)
	line = renderObserveLine(scrape(t, reg), nil, 0)
	if !strings.Contains(line, "seg_errors=1 seg_quarantined=1") {
		t.Fatalf("line %q missing error columns", line)
	}
}

// TestRenderObserveLineSearchSuffix: a scrape with search traffic grows
// the query/batch columns, including the batch route's average latency
// from its per-route histogram.
func TestRenderObserveLineSearchSuffix(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("search_queries", "").Add(40)
	reg.Counter("batch_searches", "").Add(3)
	routes := reg.HistogramVec("http_route_seconds", "", "route", nil)
	for _, v := range []float64{100e-6, 300e-6, 500e-6} {
		routes.With("post_v1_search_batch").Observe(v)
	}
	routes.With("post_v1_search").Observe(1) // not a batch: left out of batch_avg
	line := renderObserveLine(scrape(t, reg), nil, 0)
	for _, want := range []string{"searches=40", "batches=3", "batch_avg=300us"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

// TestRenderObserveLineClusterSuffix: a router scrape with replication
// and failover metrics grows the per-shard lag / failover-read /
// promotion columns, sorted by shard for a stable layout. The router
// serves no request histogram, so its quantiles read 0us.
func TestRenderObserveLineClusterSuffix(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetConstLabels(map[string]string{"role": "router", "ring_epoch": "7"})
	lag := reg.GaugeVec("replica_lag_bytes", "", "shard")
	lag.With("1").Set(2048)
	lag.With("0").Set(512)
	reg.GaugeVec("replica_behind_seconds", "", "shard").With("0").Set(3)
	reads := reg.CounterVec("failover_reads_total", "", "shard")
	reads.With("0").Add(4)
	reads.With("1").Add(1)
	reg.Counter("promotions_total", "").Add(1)
	line := renderObserveLine(scrape(t, reg), nil, 0)
	for _, want := range []string{"lag[0]=512B/3s", "lag[1]=2048B", "failover_reads=5", "promotions=1", "p50=0us p90=0us p99=0us"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if strings.Index(line, "lag[0]") > strings.Index(line, "lag[1]") {
		t.Fatalf("shard columns not sorted: %q", line)
	}
}
