package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/segment"
)

// rotSegments flips one byte inside the first window block of every
// segment file under dir — damage that lands after attach, which only
// the per-read block CRC can see.
func rotSegments(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("segment files: %v, %v", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[40] ^= 0x01 // past the 20-byte header line, inside the block
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreColdReadFailureSurfaces: a block that rots after boot makes
// every cold read path fail loudly — an ErrColdRead the caller can tell
// from "no such label", counted in store_segment_errors — instead of
// answering as if the archive held nothing.
func TestStoreColdReadFailureSurfaces(t *testing.T) {
	segDir := filepath.Join(t.TempDir(), "segments")
	u := graph.NewUniverse()
	reg := obs.NewRegistry()
	s := newTieredStore(t, Config{Capacity: 2, Universe: u, Registry: reg}, segDir)
	// "gone" is a source in windows 0–2 only, so by window 5 its latest
	// signature lives in the cold tier alone.
	for w := 0; w < 6; w++ {
		sigs := map[string]map[string]float64{"stays": {"x": 1, "y": float64(w + 1)}}
		if w < 3 {
			sigs["gone"] = map[string]float64{"x": 2, "z": 1}
		}
		if err := s.Add(buildSet(t, u, w, sigs)); err != nil {
			t.Fatal(err)
		}
	}
	if _, w, ok, err := s.ReadLatestSignature("gone"); err != nil || !ok || w != 2 {
		t.Fatalf("before the rot: window %d ok=%v err=%v", w, ok, err)
	}
	// A second handle on the same files with nothing in RAM: Latest must
	// come from the newest segment.
	coldOnly := newTieredStore(t, Config{Capacity: 2, Universe: graph.NewUniverse(), Registry: obs.NewRegistry()}, segDir)
	if set, err := coldOnly.Latest(); err != nil || set == nil || set.Window != 3 {
		t.Fatalf("before the rot: cold-only Latest = %v, %v", set, err)
	}

	rotSegments(t, segDir)
	errs := reg.Counter("store_segment_errors", "")
	failed := int64(0)
	check := func(what string, err error) {
		t.Helper()
		failed++
		if !errors.Is(err, ErrColdRead) || !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrColdRead wrapping segment.ErrCorrupt", what, err)
		}
		if got := errs.Value(); got != failed {
			t.Fatalf("%s: store_segment_errors = %d, want %d", what, got, failed)
		}
	}

	_, _, ok, err := s.ReadLatestSignature("gone")
	if ok {
		t.Fatal("ReadLatestSignature found a signature in a rotten block")
	}
	check("ReadLatestSignature", err)
	if _, _, ok := s.LatestSignature("gone"); ok {
		t.Fatal("LatestSignature found a signature in a rotten block")
	}
	failed++ // the three-valued form reads (and counts) just the same
	_, err = s.SearchLabel(core.Jaccard{}, "gone", SearchOptions{})
	check("SearchLabel", err)
	if strings.Contains(err.Error(), "no archived signature") {
		t.Fatalf("SearchLabel reports a read failure as an absent label: %v", err)
	}
	_, _, err = s.HistoryRange("gone", 0, 5, 0)
	check("HistoryRange", err)
	_, err = s.Window(1)
	check("Window", err)
	sig, _, _ := s.LatestSignature("stays") // hot
	_, err = s.Search(core.Jaccard{}, sig, SearchOptions{})
	check("Search over the whole archive", err)
	_, err = s.SearchBatch(core.Jaccard{}, []BatchQuery{{Sig: sig}})
	check("SearchBatch over the whole archive", err)
	if _, err := s.Search(core.Jaccard{}, sig, SearchOptions{LastWindows: 2}); err != nil {
		t.Fatalf("a search that stays in the hot ring failed: %v", err)
	}

	set, err := coldOnly.Latest()
	if set != nil || !errors.Is(err, ErrColdRead) {
		t.Fatalf("cold-only Latest = %v, %v, want ErrColdRead", set, err)
	}
}
