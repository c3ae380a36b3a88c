package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

// TestClientSubcommandAgainstLiveServer drives every client -op against
// a live sigserverd handler: the remote-operations counterpart of the
// offline subcommand tests.
func TestClientSubcommandAgainstLiveServer(t *testing.T) {
	t0 := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	srv, err := server.New(server.Config{
		Stream: stream.Config{
			WindowSize: time.Hour,
			Origin:     t0,
			Classify:   netflow.PrefixClassifier("10."),
			TCPOnly:    true,
			K:          5,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 1024, Depth: 4, Candidates: 64, Seed: 1},
		},
		StoreCapacity: 8,
		WatchMaxDist:  server.Float64(0.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two windows: 10.0.0.1 and 10.0.0.2 are behavioural twins in
	// window 0; both reappear in window 1.
	flow := func(src, dst string, offset time.Duration, sessions int) netflow.Record {
		return netflow.Record{Src: src, Dst: dst, Start: t0.Add(offset), Sessions: sessions, Proto: netflow.TCP}
	}
	res := server.NewClient(ts.URL)
	if _, err := res.Ingest([]netflow.Record{
		flow("10.0.0.1", "e1", 0, 3),
		flow("10.0.0.1", "e2", time.Minute, 1),
		flow("10.0.0.2", "e1", 2*time.Minute, 3),
		flow("10.0.0.2", "e2", 3*time.Minute, 1),
		flow("10.0.0.1", "e1", time.Hour, 3),
		flow("10.0.0.1", "e2", time.Hour+time.Minute, 1),
	}); err != nil {
		t.Fatal(err)
	}

	base := config{addr: ts.URL, top: 10, maxDist: 0.9, z: 2.0}
	runOp := func(mutate func(*config)) string {
		cfg := base
		mutate(&cfg)
		var sb strings.Builder
		if err := runClient(cfg, &sb); err != nil {
			t.Fatalf("op %s: %v", cfg.op, err)
		}
		return sb.String()
	}

	// Watch 10.0.0.1 while only window 0 is archived, then flush the
	// still-open window 1: screening it must hit the watched individual.
	if out := runOp(func(c *config) { c.op = "watch"; c.node = "10.0.0.1"; c.individual = "case-7" }); !strings.Contains(out, `archived 1 signature(s) of 10.0.0.1 under "case-7"`) {
		t.Fatalf("watch output: %q", out)
	}
	if _, err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if out := runOp(func(c *config) { c.op = "search"; c.node = "10.0.0.1" }); !strings.Contains(out, "10.0.0.2") {
		t.Fatalf("search did not surface the twin: %q", out)
	}
	if out := runOp(func(c *config) { c.op = "history"; c.node = "10.0.0.1" }); !strings.Contains(out, "2 archived windows") {
		t.Fatalf("history output: %q", out)
	}
	if out := runOp(func(c *config) { c.op = "hits" }); !strings.Contains(out, "case-7") {
		t.Fatalf("hits output: %q", out)
	}
	if out := runOp(func(c *config) { c.op = "anomalies" }); !strings.Contains(out, "windows [0,1]") {
		t.Fatalf("anomalies output: %q", out)
	}
	// -op metrics prints the exposition, which parses again.
	if out := runOp(func(c *config) { c.op = "metrics" }); !strings.Contains(out, "\nflows_received 6\n") {
		t.Fatalf("metrics output: %q", out)
	} else if _, err := obs.ParseExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("metrics output does not parse: %v\n%s", err, out)
	}
	if out := runOp(func(c *config) { c.op = "health" }); !strings.Contains(out, "ok:") {
		t.Fatalf("health output: %q", out)
	}

	// Unknown op and missing arguments are reported, not panics.
	if err := runClient(config{addr: ts.URL, op: "bogus"}, &strings.Builder{}); err == nil {
		t.Fatal("bogus op accepted")
	}
	if err := runClient(config{addr: ts.URL, op: "search"}, &strings.Builder{}); err == nil {
		t.Fatal("search without -node accepted")
	}
}
