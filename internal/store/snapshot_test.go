package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphsig/internal/fault"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// lineageStore builds a three-window store whose signature weights
// depend on salt, so two salts are two lineages with the same window
// indices and different window files.
func lineageStore(t testing.TB, salt float64, reg *obs.Registry) *Store {
	t.Helper()
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 8, Universe: u, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		addWindow(t, s, w, salt)
	}
	return s
}

func addWindow(t testing.TB, s *Store, w int, salt float64) {
	t.Helper()
	set := buildSet(t, s.Universe(), w, map[string]map[string]float64{
		"host-a": {"peer-1": 3 + salt, "peer-2": 1},
		"host-b": {"peer-2": 2, fmt.Sprintf("peer-%d", w+3): 1},
	})
	if err := s.Add(set); err != nil {
		t.Fatal(err)
	}
}

// savedSnapshot writes a three-window snapshot into dir and returns
// the store that produced it.
func savedSnapshot(t *testing.T, dir string) *Store {
	t.Helper()
	s := lineageStore(t, 0, nil)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertEquivalent loads dir and checks it matches the original store
// bit for bit, label numbering included.
func assertEquivalent(t *testing.T, dir string, orig *Store) {
	t.Helper()
	got, err := Load(dir, Config{Capacity: 8})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertStoresEqual(t, orig, got)
	for id := 0; id < got.Universe().Size(); id++ {
		if a, b := orig.Universe().Label(graph.NodeID(id)), got.Universe().Label(graph.NodeID(id)); a != b {
			t.Fatalf("NodeID %d is %q after reload, was %q", id, b, a)
		}
	}
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// assertExactFiles checks dir holds MANIFEST and the files it names,
// and nothing else — no stale .tmp, no file of an earlier snapshot.
func assertExactFiles(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	windows, err := loadManifest(raw, graph.NewUniverse())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName}
	for _, w := range windows {
		want = append(want, w.name())
	}
	sort.Strings(want)
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot dir holds %v, want exactly %v", got, want)
	}
}

// windowPath returns the path of window w's file in a snapshot dir.
func windowPath(t *testing.T, dir string, w int) string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("window-%09d-*.seg", w)))
	if err != nil || len(m) != 1 {
		t.Fatalf("window %d files: %v (%v)", w, m, err)
	}
	return m[0]
}

func TestSnapshotCorruptAnyByteIsDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	names := dirNames(t, dir)
	if len(names) != 4 { // MANIFEST + 3 windows
		t.Fatalf("snapshot holds %v, want 4 files", names)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Every byte of every file is under a checksum Load verifies: a
		// flip anywhere must surface as ErrCorrupt, never a panic, a
		// silent load or a different error.
		for off := range blob {
			mut := append([]byte(nil), blob...)
			mut[off] ^= 0x20
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir, Config{Capacity: 8}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s byte %d flipped: Load = %v, want ErrCorrupt", name, off, err)
			}
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotTruncatedSetFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	path := windowPath(t, dir, 1)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, Config{Capacity: 8}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated set file: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotMissingManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if SnapshotExists(dir) {
		t.Fatal("manifest-less dir reported as a snapshot")
	}
	if _, err := Load(dir, Config{Capacity: 8}); err == nil {
		t.Fatal("manifest-less dir loaded")
	}
}

func TestSnapshotMissingSetFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	if err := os.Remove(windowPath(t, dir, 2)); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, Config{Capacity: 8})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("manifest referencing absent file: %v", err)
	}
}

// rewriteManifest replaces dir's manifest with one over the same labels
// and edit's window list, correctly checksummed — what bit rot cannot
// produce but a foreign or buggy writer could.
func rewriteManifest(t *testing.T, dir string, edit func([]windowFile) []windowFile) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	u := graph.NewUniverse()
	windows, err := loadManifest(raw, u)
	if err != nil {
		t.Fatal(err)
	}
	node := func(i int) (string, graph.Part) { return u.Label(graph.NodeID(i)), u.PartOf(graph.NodeID(i)) }
	if err := os.WriteFile(path, renderManifest(u.Size(), node, edit(windows)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDuplicateWindowIndices(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	// The same window listed twice, under a valid checksum.
	rewriteManifest(t, dir, func(w []windowFile) []windowFile { return []windowFile{w[0], w[0]} })
	if _, err := Load(dir, Config{Capacity: 8}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate window index: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotWrongWindowFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	// The manifest promises window 7 in a file that is a healthy segment
	// of window 2.
	var forged windowFile
	rewriteManifest(t, dir, func(w []windowFile) []windowFile {
		forged = windowFile{window: 7, crc: w[2].crc}
		return []windowFile{w[0], w[1], forged}
	})
	if err := os.Rename(windowPath(t, dir, 2), filepath.Join(dir, forged.name())); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, Config{Capacity: 8})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "manifest says 7") {
		t.Fatalf("wrong window in file: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotOverwriteKeepsAtomicity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	orig := savedSnapshot(t, dir)
	// Save again over the existing snapshot, and once more after the
	// ring moved on: nothing stale remains.
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertExactFiles(t, dir)
	assertEquivalent(t, dir, orig)
	addWindow(t, orig, 3, 0)
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertExactFiles(t, dir)
	assertEquivalent(t, dir, orig)
}

// TestSaveWritesOnlyNewWindows: a window file is immutable, so a Save
// costs the windows the directory does not hold yet plus the manifest.
func TestSaveWritesOnlyNewWindows(t *testing.T) {
	reg := obs.NewRegistry()
	dir := filepath.Join(t.TempDir(), "snap")
	s := lineageStore(t, 0, reg)
	size := func(path string) int64 {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	// save returns the bytes one Save reports having written.
	save := func(s *Store) int64 {
		before := reg.Snapshot()["store_snapshot_save_bytes_total"]
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()["store_snapshot_save_bytes_total"] - before
	}
	manifest := filepath.Join(dir, manifestName)

	want := int64(0)
	first := save(s)
	for w := 0; w < 3; w++ {
		want += size(windowPath(t, dir, w))
	}
	if want += size(manifest); first != want {
		t.Fatalf("first Save wrote %d bytes, files total %d", first, want)
	}
	if got := save(s); got != size(manifest) {
		t.Fatalf("Save of an unchanged ring wrote %d bytes, manifest is %d", got, size(manifest))
	}
	addWindow(t, s, 3, 0)
	if got, want := save(s), size(manifest)+size(windowPath(t, dir, 3)); got != want {
		t.Fatalf("Save after one Add wrote %d bytes, want manifest + one window = %d", got, want)
	}
	// A store that loaded the directory owns its files just the same.
	loaded, err := Load(dir, Config{Capacity: 8, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := save(loaded); got != size(manifest) {
		t.Fatalf("Save by the loader wrote %d bytes, manifest is %d", got, size(manifest))
	}
}

func TestSnapshotQuarantine(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "snap")
	savedSnapshot(t, dir)
	blobPath := windowPath(t, dir, 0)
	blob, _ := os.ReadFile(blobPath)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	moved, err := Quarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(moved, dir+quarantineSuffix) {
		t.Fatalf("quarantined to %s", moved)
	}
	if SnapshotExists(dir) {
		t.Fatal("dir still reports a snapshot after quarantine")
	}
	// Second quarantine of a fresh corrupt dir picks a distinct name.
	savedSnapshot(t, dir)
	moved2, err := Quarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if moved2 == moved {
		t.Fatalf("quarantine reused %s", moved)
	}
}

// saveFailpoints lists Save's failpoints and which side of the manifest
// rename — the one commit point — each lies on.
var saveFailpoints = []struct {
	name      string
	committed bool
}{
	{"store.save.window", false},
	{"store.save.window.commit", false},
	{"store.save.manifest", false},
	{"store.save.sweep", true},
}

// TestSaveFailpointLeavesOldSnapshot: a Save that fails over an
// existing snapshot leaves it loading as the old ring (failed before
// the rename) or the new one (after), never a mix, and the next Save
// that succeeds clears whatever the failed one left behind.
func TestSaveFailpointLeavesOldSnapshot(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("disk full")
	for _, point := range saveFailpoints {
		t.Run(point.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			s := savedSnapshot(t, dir)
			old := savedSnapshot(t, filepath.Join(t.TempDir(), "old")) // the ring as committed
			addWindow(t, s, 3, 0)

			fault.Set(point.name, func() error { return boom })
			if err := s.Save(dir); !errors.Is(err, boom) {
				t.Fatalf("Save returned %v", err)
			}
			fault.Clear(point.name)
			if point.committed {
				assertEquivalent(t, dir, s)
			} else {
				assertEquivalent(t, dir, old)
			}

			addWindow(t, s, 4, 0)
			if err := s.Save(dir); err != nil {
				t.Fatal(err)
			}
			assertExactFiles(t, dir)
			assertEquivalent(t, dir, s)
		})
	}
}

// TestSaveOverAnotherLineage: Server.Promote saves a follower's ring
// into a directory that may hold a previous life's snapshot with the
// same window indices. Nothing of it may be reused, and it must stay
// loadable until the new manifest commits.
func TestSaveOverAnotherLineage(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("disk full")
	dir := filepath.Join(t.TempDir(), "snap")
	old := lineageStore(t, 0, nil)
	if err := old.Save(dir); err != nil {
		t.Fatal(err)
	}
	mine := lineageStore(t, 0.5, nil)
	for _, point := range saveFailpoints {
		if point.committed {
			continue
		}
		fault.Set(point.name, func() error { return boom })
		if err := mine.Save(dir); !errors.Is(err, boom) {
			t.Fatalf("%s: Save returned %v", point.name, err)
		}
		fault.Clear(point.name)
		assertEquivalent(t, dir, old)
	}
	if err := mine.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertExactFiles(t, dir)
	assertEquivalent(t, dir, mine)

	// And the other way round: the first store's record of what it wrote
	// here is stale now (its files were swept), which Save must notice.
	if err := old.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertExactFiles(t, dir)
	assertEquivalent(t, dir, old)
}

// TestLoadOldFormatRefused: a v1/v2 directory is good data this build
// no longer reads. Load must say so — not ErrCorrupt, which would get
// it quarantined — and touch nothing.
func TestLoadOldFormatRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "snapshot-v2") // written by the last v2 build
	before := dirNames(t, fixture)
	if !SnapshotExists(fixture) {
		t.Fatal("fixture not reported as a snapshot")
	}
	_, err := Load(fixture, Config{Capacity: 8})
	if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrOldFormat and not ErrCorrupt", err)
	}
	if after := dirNames(t, fixture); !reflect.DeepEqual(after, before) {
		t.Fatalf("Load changed the directory: %v -> %v", before, after)
	}
}
