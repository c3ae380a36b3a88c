package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"graphsig/internal/daemon"
	"graphsig/internal/store"
)

// defaultOptions is the daemon's command line with no flags given —
// defining the flags stores their defaults — on an ephemeral port and
// with a small replay workload.
func defaultOptions() options {
	var o options
	flags(&o)
	o.addr = "127.0.0.1:0"
	o.replayHosts = 20
	o.replayWindows = 2
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
	for _, c := range []struct {
		name string
		edit func(*options)
	}{
		{"index without count", func(o *options) { o.shardIndex = 1 }},
		{"negative index", func(o *options) { o.shardIndex = -1 }},
		{"negative index with count", func(o *options) { o.shardIndex, o.shardCount = -1, 2 }},
		{"index past count", func(o *options) { o.shardIndex, o.shardCount = 2, 2 }},
		{"negative count", func(o *options) { o.shardCount = -1 }},
		{"follow and replicate", func(o *options) { o.follow, o.replicate = "http://127.0.0.1:1", true }},
		{"follow and replay", func(o *options) { o.follow, o.replay = "http://127.0.0.1:1", true }},
	} {
		o := defaultOptions()
		c.edit(&o)
		if _, err := serverConfig(o); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	o = defaultOptions()
	o.shardIndex, o.shardCount = 1, 2
	if cfg, err := serverConfig(o); err != nil || cfg.Node.Shard != 1 || cfg.Node.Shards != 2 {
		t.Fatalf("shard 1 of 2: %+v, %v", cfg.Node, err)
	}
}

// TestFollowRefusesAddressList: a replica tails one primary. A second
// address would let the replica fail over on its own, beside the
// router's prober, so a comma in -follow is refused.
func TestFollowRefusesAddressList(t *testing.T) {
	o := defaultOptions()
	o.follow = "http://127.0.0.1:1,http://127.0.0.1:2"
	if _, err := serverConfig(o); err == nil {
		t.Fatal("-follow a,b accepted")
	}
	o.follow = "http://127.0.0.1:1"
	if _, err := serverConfig(o); err != nil {
		t.Fatalf("-follow a: %v", err)
	}
}

// TestFlagsHaveSetters is the flag audit: every flag is a deployment
// setting or a paper parameter listed here with its reason, or some
// command line or back-ticked span in the docs, the Makefile, the
// scripts or the skills sets it; every command line there uses only
// flags the daemon has. A flag nothing sets becomes a constant.
func TestFlagsHaveSetters(t *testing.T) {
	table := map[string]string{
		"addr":           "listen address",
		"debug-addr":     "pprof listen address",
		"snapshot":       "durability directory",
		"segment-dir":    "cold-tier directory",
		"follow":         "the primary a replica tails",
		"shard-index":    "shard identity",
		"shard-count":    "shard identity",
		"segment-retain": "disk budget",
		"local-prefix":   "the site's address plan",
		"scheme":         "paper parameter: TT or UT (§VI)",
		"k":              "paper parameter: signature length",
		"window":         "paper parameter: window length",
		"origin":         "paper parameter: window alignment",
		"distance":       "paper parameter: signature distance",
	}
	problems, err := daemon.AuditFlags(func() *flag.FlagSet { return flags(new(options)) }, table, "../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
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
