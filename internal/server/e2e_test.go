package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/sketch"
	"graphsig/internal/store"
	"graphsig/internal/stream"
)

// TestEndToEndEnterpriseServing is the acceptance test for the whole
// serving stack: sigserverd's configuration on an ephemeral port, a
// datagen enterprise workload ingested over HTTP in batches, search
// recovering the planted multiusage pair, metrics consistent with what
// was sent, and a shutdown snapshot that reloads into an equivalent
// store.
func TestEndToEndEnterpriseServing(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(9)
	gcfg.LocalHosts = 25
	gcfg.ExternalHosts = 300
	gcfg.Communities = 3
	gcfg.Windows = 3
	gcfg.MultiusageIndividuals = 3
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}

	snapDir := t.TempDir()
	cfg := Config{
		Stream: stream.Config{
			WindowSize: gcfg.WindowLength,
			Origin:     gcfg.Origin,
			Classify:   datagen.LocalClassifier,
			TCPOnly:    true,
			K:          10,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 3},
		},
		StoreCapacity: 8,
		WatchMaxDist:  Float64(0.9),
		SnapshotDir:   snapDir,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Serve on a real ephemeral port, as the daemon would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	c := NewClient("http://" + ln.Addr().String())

	// Ingest the capture over HTTP in batches, as a collector would.
	const batchSize = 500
	sent := 0
	for i := 0; i < len(data.Records); i += batchSize {
		end := min(i+batchSize, len(data.Records))
		res, err := c.Ingest(data.Records[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected != 0 {
			t.Fatalf("batch %d rejected %d records: %v", i/batchSize, res.Rejected, res.Errors)
		}
		sent += end - i
	}
	if sent != len(data.Records) {
		t.Fatalf("sent %d of %d records", sent, len(data.Records))
	}

	// All but the still-open final window must be archived.
	if got := srv.Store().Len(); got != gcfg.Windows-1 {
		t.Fatalf("store holds %d windows, want %d", got, gcfg.Windows-1)
	}

	// Put one multiusage individual's first label on the watchlist, then
	// flush the final window: screening must run against it.
	pairs := data.Truth.MultiusageSets()
	if len(pairs) == 0 {
		t.Fatal("workload has no multiusage ground truth")
	}
	if _, err := c.WatchlistAdd(WatchlistAddRequest{Individual: "case-0", Label: pairs[0][0]}); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.Flush(); err != nil || n != 1 {
		t.Fatalf("flush closed %d windows, err %v", n, err)
	}
	if got := srv.Store().Len(); got != gcfg.Windows {
		t.Fatalf("store holds %d windows after flush, want %d", got, gcfg.Windows)
	}

	// The planted multiusage pair surfaces in nearest-signature search:
	// for at least one individual controlling labels {a, b, ...},
	// searching by a must rank a sibling label among the top hits.
	foundPair := false
	for _, labels := range pairs {
		for _, a := range labels {
			sr, err := c.Search(SearchRequest{Label: a, K: 10, MaxDist: 0.95})
			if err != nil {
				continue // label may have no archived signature
			}
			for _, h := range sr.Hits {
				for _, b := range labels {
					if b != a && h.Label == b {
						foundPair = true
					}
				}
			}
		}
	}
	if !foundPair {
		t.Fatalf("no planted multiusage pair among top search hits; truth = %v", pairs)
	}

	// The watchlisted individual reappears: its archived signature hits
	// in the flushed window (itself, and possibly its other labels).
	hits, err := c.WatchlistHits()
	if err != nil {
		t.Fatal(err)
	}
	caseHit := false
	for _, h := range hits.Hits {
		if h.Individual == "case-0" {
			caseHit = true
		}
	}
	if !caseHit {
		t.Fatalf("watchlisted individual never hit; hits = %+v", hits.Hits)
	}

	// Anomalies answer over the last two archived windows.
	an, err := c.Anomalies(2)
	if err != nil {
		t.Fatal(err)
	}
	if an.ToWindow != gcfg.Windows-1 || an.FromWindow != gcfg.Windows-2 {
		t.Fatalf("anomaly windows = [%d,%d]", an.FromWindow, an.ToWindow)
	}

	// Metrics are consistent with the records sent.
	m := metricTotals(t, c)
	if m["flows_received"] != int64(len(data.Records)) {
		t.Fatalf("flows_received = %d, sent %d", m["flows_received"], len(data.Records))
	}
	if m["flows_accepted"]+m["flows_dropped"]+m["flows_rejected"] != m["flows_received"] {
		t.Fatalf("flow counters inconsistent: %v", m)
	}
	if m["windows_closed"] != int64(gcfg.Windows) {
		t.Fatalf("windows_closed = %d, want %d", m["windows_closed"], gcfg.Windows)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if int64(h.Ingested) != m["flows_accepted"] {
		t.Fatalf("health ingested %d vs accepted %d", h.Ingested, m["flows_accepted"])
	}

	// Drain HTTP, then shut the service down: the snapshot must reload
	// into an equivalent store.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.Load(snapDir, store.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalentStores(t, srv.Store(), reloaded)

	// A restarted server resumes from the snapshot.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Store().Len() != gcfg.Windows {
		t.Fatalf("restarted server store holds %d windows", srv2.Store().Len())
	}
}

// assertEquivalentStores compares two stores window-by-window through
// labels (NodeID assignments may differ between universes).
func assertEquivalentStores(t *testing.T, a, b *store.Store) {
	t.Helper()
	wa, wb := a.Windows(), b.Windows()
	if len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		sa, sb := wa[i], wb[i]
		if sa.Window != sb.Window || sa.Scheme != sb.Scheme || sa.Len() != sb.Len() {
			t.Fatalf("window %d header mismatch", i)
		}
		for j, v := range sa.Sources {
			label := a.Universe().Label(v)
			vb, ok := b.Universe().Lookup(label)
			if !ok {
				t.Fatalf("window %d: label %q missing from reloaded universe", sa.Window, label)
			}
			sigB, ok := sb.Get(vb)
			if !ok {
				t.Fatalf("window %d: %q missing from reloaded set", sa.Window, label)
			}
			sigA := sa.Sigs[j]
			if sigA.Len() != sigB.Len() {
				t.Fatalf("window %d %q: lengths differ", sa.Window, label)
			}
			for k := range sigA.Nodes {
				la := a.Universe().Label(sigA.Nodes[k])
				lb := b.Universe().Label(sigB.Nodes[k])
				if la != lb || sigA.Weights[k] != sigB.Weights[k] {
					t.Fatalf("window %d %q entry %d: (%q,%g) vs (%q,%g)",
						sa.Window, label, k, la, sigA.Weights[k], lb, sigB.Weights[k])
				}
			}
		}
	}
}
