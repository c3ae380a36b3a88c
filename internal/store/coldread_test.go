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
		rotFile(t, f)
	}
}

// rotFile flips one byte inside the first window block of a segment
// file.
func rotFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[40] ^= 0x01 // past the 20-byte header line, inside the block
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
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

// TestStoreColdReadsRepeat: nothing read from the cold tier is kept. A
// search three windows behind the hot ring reads three blocks, and reads
// them again when it is asked again; a label's history behind the ring
// reads the blocks that hold the label, each time.
func TestStoreColdReadsRepeat(t *testing.T) {
	const capacity, total = 2, 8
	u := graph.NewUniverse()
	reg := obs.NewRegistry()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u, Registry: reg}, filepath.Join(t.TempDir(), "segments"))
	for w := 0; w < total; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	sig, _, ok := s.LatestSignature("host-0")
	if !ok {
		t.Fatal("no query signature")
	}
	loads := reg.Counter("store_segment_loads", "")
	for round := int64(1); round <= 3; round++ {
		for _, maxDist := range []float64{0.3, 1} {
			if _, err := s.Search(core.Jaccard{}, sig, SearchOptions{LastWindows: capacity + 3, MaxDist: maxDist}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.HistoryRange("host-0", 0, total, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := loads.Value(), round*(2*3+total-capacity); got != want {
			t.Fatalf("round %d: store_segment_loads = %d, want %d", round, got, want)
		}
	}
}

// TestStoreOldFormatSegmentRefused: a `graphsig-segment v1` file in the
// segment directory fails the attach with segment.ErrOldFormat, and
// nothing in the directory has moved — not the old file, and not the
// corrupt one beside it that a completed attach would have quarantined.
func TestStoreOldFormatSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("..", "segment", "testdata", "v1-text.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		segment.Name(0, 1): []byte("graphsig-segment v2\ntorn"),
		segment.Name(2, 4): old,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.AttachSegments(dir)
	if !errors.Is(err, segment.ErrOldFormat) || errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("AttachSegments = %v, want segment.ErrOldFormat", err)
	}
	if len(st.Quarantined) != 0 || s.SegmentDir() != "" {
		t.Fatalf("refused attach quarantined %v, tier dir %q", st.Quarantined, s.SegmentDir())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != segment.Name(0, 1) || entries[1].Name() != segment.Name(2, 4) {
		t.Fatalf("refused attach changed the directory: %v", entries)
	}
}
