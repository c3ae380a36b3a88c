package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphsig/internal/fault"
	"graphsig/internal/graph"
)

// TestAddSavingWritesAcceptedWindows: AddSaving writes the window it
// accepts into the directory of the store's last Save — beside the
// compaction of the window it evicts, on two Ps — so the Save after it
// writes no window file; it writes nothing into a directory the store
// has not saved into, and nothing for a window it refuses, whose
// archived file stays as it was. The directory then loads back to the
// ring.
func TestAddSavingWritesAcceptedWindows(t *testing.T) {
	t.Cleanup(fault.Reset)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := t.TempDir()
	dir := filepath.Join(base, "snap")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: 2, Universe: u}, filepath.Join(base, "seg"))

	if err := s.AddSaving(tierSet(t, u, 0), dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("AddSaving before any Save into %s: %v, want nothing written there", dir, err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for w := 1; w < 6; w++ {
		if err := s.AddSaving(tierSet(t, u, w), dir); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(windowPath(t, dir, w))
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint finds the file owned: a window write would fail.
		fault.Set("store.save.window", func() error { return errors.New("window file written twice") })
		err = s.Save(dir)
		fault.Reset()
		if err != nil {
			t.Fatalf("window %d: Save after AddSaving: %v", w, err)
		}
		if w >= 2 && s.SegmentWindows() != w-1 {
			t.Fatalf("window %d: %d windows compacted, want %d", w, s.SegmentWindows(), w-1)
		}
		// A replay closing window w again is refused, and its file kept.
		again := buildSet(t, u, w, map[string]map[string]float64{"host-0": {"peer-9": 1}})
		if err := s.AddSaving(again, dir); err == nil {
			t.Fatalf("window %d accepted twice", w)
		}
		if after, err := os.ReadFile(windowPath(t, dir, w)); err != nil || string(after) != string(before) {
			t.Fatalf("window %d: its file changed under a refused AddSaving (%v)", w, err)
		}
	}
	// Nor does a refused window that left the ring get a file again.
	stale := buildSet(t, u, 0, map[string]map[string]float64{"host-0": {"peer-9": 1}})
	if err := s.AddSaving(stale, dir); err == nil {
		t.Fatal("window 0 accepted after window 5")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "window-000000000-*")); len(m) != 0 {
		t.Fatalf("a refused window 0 wrote %v", m)
	}
	loaded, err := Load(dir, Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, want := loaded.Windows(), s.Windows()
	if len(got) != len(want) {
		t.Fatalf("loaded %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Window != want[i].Window || got[i].Len() != want[i].Len() {
			t.Fatalf("loaded window %d with %d sources, want window %d with %d", got[i].Window, got[i].Len(), want[i].Window, want[i].Len())
		}
	}
}
