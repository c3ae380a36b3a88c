package wal

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/budget"
	"graphsig/internal/obs"
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
	w.StageOrigin(recs[0].Start, 0)
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

// BenchmarkWALAppend commits one batch: one write, one fsync, the frames
// encoded straight into the reused buffer. `records` is Append as the
// harness's WAL probe calls it; `records+marker` is what the server
// stages for an ID'd batch, at the small-batch and the bulk size. Each
// reports the syncs and the framed bytes of one commit.
func BenchmarkWALAppend(b *testing.B) {
	marker := BatchEntry{ID: "bench-000001", Result: json.RawMessage(`{"received":100,"accepted":100,"dropped":0,"rejected":0,"windows_closed":0,"current_window":3}`)}
	for _, bc := range []struct {
		name    string
		records int
		marker  bool
	}{
		{"records/2000", 2000, false},
		{"records+marker/100", 100, true},
		{"records+marker/2000", 2000, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, _, err := Open(filepath.Join(b.TempDir(), "append.wal"))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			reg := obs.NewRegistry()
			syncs, bytes := reg.Histogram("wal_fsync_seconds", ""), reg.Counter("wal_appended_bytes_total", "")
			w.Instrument(syncs, bytes)
			recs := testRecords(bc.records)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.StageRecords(recs)
				if bc.marker {
					w.StageBatch(marker)
				}
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(syncs.Count())/float64(b.N), "syncs/op")
			b.ReportMetric(float64(bytes.Value())/float64(b.N), "bytes/op")
		})
	}
}

// BenchmarkWALGenerationChange is what a checkpoint does to the log:
// drop the old generation (Reset truncates it, Rotate seals it aside and
// syncs the directory), then one commit for the new one's prologue — the
// origin and the watch set, none or fifty entries.
func BenchmarkWALGenerationChange(b *testing.B) {
	recs := testRecords(100)
	for _, rotate := range []bool{false, true} {
		for _, watches := range []int{0, 50} {
			name := fmt.Sprintf("reset/watches=%d", watches)
			if rotate {
				name = fmt.Sprintf("rotate/watches=%d", watches)
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				w, _, err := Open(filepath.Join(dir, "gen.wal"))
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				syncs := obs.NewRegistry().Histogram("wal_fsync_seconds", "")
				w.Instrument(syncs, nil)
				set := make([]WatchEntry, watches)
				for i := range set {
					set[i] = WatchEntry{Individual: fmt.Sprintf("case-%d", i), Window: i, Nodes: []string{"site-1.example", "site-2.example"}, Weights: []float64{0.75, 0.25}}
				}
				b.ReportAllocs()
				var changeSyncs uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := w.Append(recs); err != nil { // the generation that ends
						b.Fatal(err)
					}
					before := syncs.Count()
					b.StartTimer()
					if rotate {
						err = w.Rotate(filepath.Join(dir, fmt.Sprintf("gen.wal.g%08d", i)))
					} else {
						err = w.Reset()
					}
					if err != nil {
						b.Fatal(err)
					}
					w.StageOrigin(recs[0].Start, time.Hour)
					w.StageWatches(set)
					if err := w.Commit(); err != nil {
						b.Fatal(err)
					}
					changeSyncs += syncs.Count() - before
				}
				b.ReportMetric(float64(changeSyncs)/float64(b.N), "syncs/op")
			})
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

// TestCommitAllocBudget: once the staging buffer has grown to a batch's
// size, committing the batch's records allocates nothing — the frames
// are encoded where they will be written from — and the marker costs its
// JSON encoding (encoding/json's escaping is what keeps a marker's bytes
// what they have always been) and no more.
func TestCommitAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	w, _, err := Open(filepath.Join(t.TempDir(), "budget.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := testRecords(2000)
	marker := BatchEntry{ID: "b-1", Result: json.RawMessage(`{"accepted":2000}`)}
	commit := func(withMarker bool) func() {
		return func() {
			w.StageRecords(recs)
			if withMarker {
				w.StageBatch(marker)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(true)() // grows the buffer
	if allocs, _ := budget.PerRun(5, commit(false)); allocs > 0 {
		t.Errorf("a commit of %d records allocates %.1f times, want 0", len(recs), allocs)
	}
	if allocs, _ := budget.PerRun(5, commit(true)); allocs > 4 {
		t.Errorf("a commit of %d records and a marker allocates %.1f times, want at most 4", len(recs), allocs)
	}
}
