package server

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"graphsig/internal/netflow"
)

// benchBatch builds a batch of records that all land inside window 0,
// so the benchmark measures the steady-state ingest path (tracing,
// counters, pipeline) rather than window-close signature computes.
func benchBatch(n int) []netflow.Record {
	records := make([]netflow.Record, n)
	for i := range records {
		records[i] = flowAt(
			fmt.Sprintf("10.0.%d.%d", i/250, i%250),
			fmt.Sprintf("e%d", i%17),
			time.Duration(i%50)*time.Second, 1)
	}
	return records
}

func benchIngest(b *testing.B, strip bool) {
	srv, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	if strip {
		// Same-package surgery: nil obs handles are no-ops, so this is
		// the pre-instrumentation ingest path for overhead comparison.
		srv.obs.tracer = nil
		srv.metrics = metrics{}
	}
	records := benchBatch(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := srv.IngestBatch("", records)
		if res.Accepted != len(records) {
			b.Fatalf("accepted %d of %d: %+v", res.Accepted, len(records), res)
		}
	}
}

// BenchmarkIngestInstrumented vs BenchmarkIngestUninstrumented bounds
// the observability overhead on the hot ingest path (acceptance
// budget: <5% on ns/op).
func BenchmarkIngestInstrumented(b *testing.B)   { benchIngest(b, false) }
func BenchmarkIngestUninstrumented(b *testing.B) { benchIngest(b, true) }

// BenchmarkIngestSmallBatch is the harness's small-batch stage without
// HTTP: 100-record batches with an ID into one open window, snapshot
// directory and WAL on real files. A batch is acknowledged by one WAL
// commit — records and marker, one write, one fsync — so syncs/batch
// reads 1; ms/batch is mostly that sync.
func BenchmarkIngestSmallBatch(b *testing.B) {
	srv, err := New(crashConfig(filepath.Join(b.TempDir(), "snap")))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Abort()
	records := benchBatch(100)
	srv.IngestBatch("warm-up", records) // interns the labels, logs the origin
	syncs := srv.obs.registry.Histogram("wal_fsync_seconds", "")
	before := syncs.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := srv.IngestBatch("small-"+strconv.Itoa(i), records)
		if res.Accepted != len(records) {
			b.Fatalf("accepted %d of %d: %+v", res.Accepted, len(records), res)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/batch")
	b.ReportMetric(float64(syncs.Count()-before)/float64(b.N), "syncs/batch")
}
