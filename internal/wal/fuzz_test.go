package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/netflow"
)

// FuzzWALReplay feeds arbitrary file contents to Open's recovery scan.
// Whatever the bytes, recovery must not panic, must repair the file in
// place (a second Open sees the same records and a clean tail), and the
// repaired log must accept appends.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.wal")
	w, _, err := Open(seed)
	if err != nil {
		f.Fatal(err)
	}
	w.StageOrigin(time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC), 5*time.Minute)
	if err := w.Append([]netflow.Record{{
		Src: "a", Dst: "b",
		Start:    time.Date(2026, 3, 2, 0, 1, 0, 0, time.UTC),
		Proto:    netflow.TCP,
		Sessions: 2, Bytes: 100, Packets: 3,
	}}); err != nil {
		f.Fatal(err)
	}
	w.Close()
	clean, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                  // torn tail
	f.Add(append(append([]byte{}, clean...), 1)) // trailing partial frame
	f.Add([]byte("GSWALv1\n"))                   // header only
	f.Add([]byte("not a wal"))                   // destroyed header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, rep, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open returned a non-corruption error: %v", err)
			}
			return
		}
		// Recovery repaired in place: the surviving prefix must replay
		// identically, with nothing further to tear off.
		w.Close()
		w2, rep2, err := Open(path)
		if err != nil {
			t.Fatalf("reopening a repaired log failed: %v", err)
		}
		defer w2.Close()
		if rep2.TornBytes != 0 {
			t.Fatalf("repaired log still has %d torn bytes", rep2.TornBytes)
		}
		if len(records(rep2)) != len(records(rep)) {
			t.Fatalf("repaired log replays %d records, first pass saw %d", len(records(rep2)), len(records(rep)))
		}
		if !rep2.Origin.Equal(rep.Origin) || rep2.Window != rep.Window {
			t.Fatalf("origin changed across reopen: (%v, %v) != (%v, %v)",
				rep2.Origin, rep2.Window, rep.Origin, rep.Window)
		}
		// The repaired log must still be appendable and the append durable.
		rec := netflow.Record{
			Src: "x", Dst: "y",
			Start:    time.Date(2026, 3, 2, 1, 0, 0, 0, time.UTC),
			Proto:    netflow.TCP,
			Sessions: 1, Bytes: 1, Packets: 1,
		}
		if err := w2.Append([]netflow.Record{rec}); err != nil {
			t.Fatalf("append to repaired log failed: %v", err)
		}
		w2.Close()
		w3, rep3, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after append failed: %v", err)
		}
		defer w3.Close()
		recs3 := records(rep3)
		if len(recs3) != len(records(rep2))+1 {
			t.Fatalf("append lost: %d records, want %d", len(recs3), len(records(rep2))+1)
		}
		got := recs3[len(recs3)-1]
		if got.Src != rec.Src || got.Dst != rec.Dst || !got.Start.Equal(rec.Start) {
			t.Fatalf("appended record replayed as %+v", got)
		}
	})
}
