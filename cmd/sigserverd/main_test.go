package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"graphsig/internal/store"
)

func defaultOptions() options {
	var o options
	o.addr = "127.0.0.1:0"
	o.window = 5 * 24 * time.Hour
	o.localPrefix = "10."
	o.scheme = "tt"
	o.k = 10
	o.tcpOnly = true
	o.distance = "jaccard"
	o.capacity = 16
	o.watchDist = 0.5
	o.snapInterval = 20 * time.Millisecond
	o.maxInFlight = 4
	o.sketchWidth = 1024
	o.sketchDepth = 4
	o.sketchCand = 64
	o.replaySeed = 1
	o.replayHosts = 20
	o.replayWindows = 2
	o.replayBatch = 500
	return o
}

func TestServerConfigValidation(t *testing.T) {
	o := defaultOptions()
	if _, err := serverConfig(o); err != nil {
		t.Fatal(err)
	}
	o.distance = "no-such-distance"
	if _, err := serverConfig(o); err == nil {
		t.Fatal("unknown distance accepted")
	}
	o = defaultOptions()
	o.origin = "not-a-time"
	if _, err := serverConfig(o); err == nil {
		t.Fatal("bad origin accepted")
	}
	o.origin = "2026-03-02T00:00:00Z"
	cfg, err := serverConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stream.Origin.IsZero() {
		t.Fatal("origin not applied")
	}
}

// TestReplayRunExits drives the daemon end to end: run() listens on an
// ephemeral port, replays a small synthetic workload against itself
// over HTTP, snapshots on shutdown, and exits without a signal.
func TestReplayRunExits(t *testing.T) {
	o := defaultOptions()
	o.replay = true
	o.snapshot = t.TempDir()
	var buf strings.Builder
	if err := run(o, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"serving on http://127.0.0.1:", "replay: ingested", "windows closed", "snapshot saved"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !store.SnapshotExists(o.snapshot) {
		t.Fatal("no snapshot written on shutdown")
	}
	// The final window is flushed at shutdown, so the snapshot holds
	// every replay window; a fresh load must see them.
	s, err := store.Load(o.snapshot, store.Config{Capacity: o.capacity})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != o.replayWindows {
		t.Fatalf("snapshot holds %d windows, want %d", s.Len(), o.replayWindows)
	}
}

// TestDebugMuxRoutesPprof: -debug-addr serves http.DefaultServeMux, on
// which the blank net/http/pprof import registers the profiling routes.
func TestDebugMuxRoutesPprof(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil)
	if _, pattern := http.DefaultServeMux.Handler(req); !strings.HasSuffix(pattern, "/debug/pprof/cmdline") {
		t.Fatalf("http.DefaultServeMux routes /debug/pprof/cmdline to %q", pattern)
	}
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), os.Args[0]) {
		t.Fatalf("GET /debug/pprof/cmdline = %d %q", rec.Code, rec.Body.String())
	}
}
