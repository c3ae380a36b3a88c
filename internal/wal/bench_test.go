package wal

import (
	"path/filepath"
	"testing"

	"graphsig/internal/budget"
)

// writeLog writes n records (plus the origin frame) in batches of 2 000
// to a fresh log under dir and returns its path.
func writeLog(tb testing.TB, dir string, n int) string {
	tb.Helper()
	path := filepath.Join(dir, "bench.wal")
	w, _, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	recs := testRecords(n)
	if err := w.AppendOrigin(recs[0].Start, 0); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i += 2000 {
		if err := w.Append(recs[i:min(i+2000, n)]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkWALOpen opens — reads, checksums, decodes — a log of 38 000
// records, the size a `wide` restart replays (bench/README.md).
func BenchmarkWALOpen(b *testing.B) {
	const n = 38000
	path := writeLog(b, b.TempDir(), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, rep, err := Open(path)
		if err != nil || len(rep.Frames) != n+1 {
			b.Fatalf("Open: %d frames, err %v", len(rep.Frames), err)
		}
		w.Close()
	}
}

// BenchmarkWALAppend appends one batch of 2 000 records: one write, one
// fsync, the frames encoded straight into the reused buffer.
func BenchmarkWALAppend(b *testing.B) {
	w, _, err := Open(filepath.Join(b.TempDir(), "append.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	recs := testRecords(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenAllocatesPerRecordNotPerField holds recovery to its budget:
// at most two allocations a record (the labels' one string), where
// reading each field through an io.Reader cost fourteen, and at most
// 400 bytes a record — the file, the frame list sized once, the labels —
// where regrowing the frame list cost 890.
func TestOpenAllocatesPerRecordNotPerField(t *testing.T) {
	const n = 4000
	path := writeLog(t, t.TempDir(), n)
	allocs, bytes := budget.PerRun(3, func() {
		w, rep, err := Open(path)
		if err != nil || len(rep.Frames) != n+1 {
			t.Fatalf("Open: %d frames, err %v", len(rep.Frames), err)
		}
		w.Close()
	})
	if allocs/n > 2 || bytes/n > 400 {
		t.Fatalf("Open allocated %.1f objects and %.0f bytes per record, want at most 2 and 400", allocs/n, bytes/n)
	}
}
