package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/netflow"
)

func testRecords(n int) []netflow.Record {
	origin := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	out := make([]netflow.Record, n)
	for i := range out {
		out[i] = netflow.Record{
			Src:      fmt.Sprintf("10.0.0.%d", i%7),
			Dst:      fmt.Sprintf("site-%d.example", i%5),
			Start:    origin.Add(time.Duration(i) * time.Minute),
			Duration: 250 * time.Millisecond,
			Sessions: 1 + i%3,
			Bytes:    int64(100 * (i + 1)),
			Packets:  int64(4 + i),
			Proto:    netflow.TCP,
		}
	}
	return out
}

// records is the FrameRecord subsequence of a replay, in append order.
func records(rep Replay) []netflow.Record {
	var out []netflow.Record
	for i := range rep.Frames {
		if rep.Frames[i].Kind == FrameRecord {
			out = append(out, rep.Frames[i].Record)
		}
	}
	return out
}

func mustOpen(t *testing.T, path string) (*WAL, Replay) {
	t.Helper()
	w, rep, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return w, rep
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	recs := testRecords(9)
	origin := recs[0].Start
	w, rep := mustOpen(t, path)
	if len(records(rep)) != 0 || !rep.Origin.IsZero() {
		t.Fatalf("fresh log replayed %+v", rep)
	}
	w.StageOrigin(origin, time.Hour)
	if err := w.Append(recs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[5:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rep := mustOpen(t, path)
	defer w2.Close()
	if !rep.Origin.Equal(origin) || rep.Window != time.Hour {
		t.Fatalf("replayed origin %v/%v, want %v/%v", rep.Origin, rep.Window, origin, time.Hour)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rep.TornBytes)
	}
	if len(records(rep)) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(records(rep)), len(recs))
	}
	for i, r := range records(rep) {
		if r != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, r, recs[i])
		}
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	recs := testRecords(6)
	w, _ := mustOpen(t, path)
	if err := w.Append(recs[:3]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, rep := mustOpen(t, path)
	if len(records(rep)) != 3 {
		t.Fatalf("replayed %d records, want 3", len(records(rep)))
	}
	if err := w.Append(recs[3:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rep = mustOpen(t, path)
	if len(records(rep)) != 6 {
		t.Fatalf("after reopen+append replayed %d records, want 6", len(records(rep)))
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, _ := mustOpen(t, path)
	if err := w.Append(testRecords(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Post-reset appends land after the header, not at a stale offset.
	if err := w.Append(testRecords(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rep := mustOpen(t, path)
	if len(records(rep)) != 2 || rep.TornBytes != 0 {
		t.Fatalf("after reset replayed %d records (%d torn), want 2 clean", len(records(rep)), rep.TornBytes)
	}
}

// TestTornTailEveryOffset truncates a valid log at every possible byte
// length and checks that recovery always yields a clean prefix of the
// appended records and leaves the file appendable.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(5)
	w, _ := mustOpen(t, full)
	w.StageOrigin(recs[0].Start, time.Hour)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	w.Close()
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: cutting exactly there leaves a clean shorter
	// log; cutting anywhere else must report a torn tail.
	boundary := map[int]bool{len(header): true}
	for off := len(header); off+frameOverhead <= len(blob); {
		plen := int(uint32(blob[off+1]) | uint32(blob[off+2])<<8 | uint32(blob[off+3])<<16 | uint32(blob[off+4])<<24)
		off += frameOverhead + plen
		boundary[off] = true
	}

	for cut := len(header); cut < len(blob); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, rep := mustOpen(t, path)
		if (rep.TornBytes > 0) == boundary[cut] {
			t.Fatalf("cut %d: torn=%d, boundary=%v", cut, rep.TornBytes, boundary[cut])
		}
		for i, r := range records(rep) {
			if r != recs[i] {
				t.Fatalf("cut %d: record %d is not a prefix match", cut, i)
			}
		}
		// The repaired log must accept appends and replay them.
		if err := w.Append(recs[:1]); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		w.Close()
		_, rep2 := mustOpen(t, path)
		if len(records(rep2)) != len(records(rep))+1 || rep2.TornBytes != 0 {
			t.Fatalf("cut %d: reopened replay got %d records (%d torn), want %d",
				cut, len(records(rep2)), rep2.TornBytes, len(records(rep))+1)
		}
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	recs := testRecords(4)
	w, _ := mustOpen(t, path)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	w.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the log: CRC catches it and
	// replay keeps only the frames before it.
	blob[len(header)+frameOverhead+(len(blob)-len(header))/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep := mustOpen(t, path)
	if len(records(rep)) >= len(recs) {
		t.Fatalf("corrupt log replayed all %d records", len(records(rep)))
	}
	if rep.TornBytes == 0 {
		t.Fatal("corruption not reflected in TornBytes")
	}
}

func TestCorruptHeaderQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	if err := os.WriteFile(path, []byte("not a wal at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header surfaced as %v, want ErrCorrupt", err)
	}
	moved, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(moved); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	w, rep := mustOpen(t, path)
	defer w.Close()
	if len(records(rep)) != 0 {
		t.Fatal("fresh log after quarantine is not empty")
	}
	// A second quarantine must not clobber the first.
	if err := os.WriteFile(path+".bis", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	moved2, err := Quarantine(path + ".bis")
	if err != nil {
		t.Fatal(err)
	}
	if moved2 == moved {
		t.Fatalf("quarantine reused name %s", moved)
	}
}

func TestAppendFailpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	boom := errors.New("sync blew up")
	fault.Set("wal.sync", func() error { return boom })
	if err := w.Append(testRecords(1)); !errors.Is(err, boom) {
		t.Fatalf("append with failing sync returned %v", err)
	}
	fault.Reset()
	if err := w.Append(testRecords(1)); err != nil {
		t.Fatalf("append after clearing failpoint: %v", err)
	}
}
