package store

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphsig/internal/durable"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// lineageStore builds a three-window store whose signature weights
// depend on salt, so two salts are two lineages with the same window
// indices and different window files. Its universe interns first the
// labels in held, then the windows' — so two lineages with different
// held number the labels they share differently.
func lineageStore(t testing.TB, salt float64, reg *obs.Registry, held ...string) *Store {
	t.Helper()
	u := graph.NewUniverse()
	for _, label := range held {
		u.MustIntern(label, graph.PartNone)
	}
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
	labels, windows, err := loadManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName}
	for _, l := range labels {
		want = append(want, l.name())
	}
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

// labelPaths returns the paths of a snapshot dir's label files, in
// NodeID order.
func labelPaths(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "labels-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotCorruptAnyByteIsDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	s := savedSnapshot(t, dir)
	// A fourth window brings one new label: too few to absorb the first
	// label file, so the snapshot has two.
	addWindow(t, s, 3, 0)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 7 || len(labelPaths(t, dir)) != 2 { // MANIFEST + 2 label files + 4 windows
		t.Fatalf("snapshot holds %v, want 7 files, 2 of them label files", names)
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

func TestSnapshotMissingLabelFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	savedSnapshot(t, dir)
	if err := os.Remove(labelPaths(t, dir)[0]); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, Config{Capacity: 8})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("manifest referencing absent label file: %v", err)
	}
}

// TestSnapshotLabelFilesOutOfPlace: healthy label files under a
// correctly checksummed manifest that lists them in another order, or
// leaves the first out — what bit rot cannot produce but a foreign or
// buggy writer could. NodeIDs would come out permuted or shifted;
// either is refused.
func TestSnapshotLabelFilesOutOfPlace(t *testing.T) {
	for name, edit := range map[string]func([]labelFile) []labelFile{
		"swapped":       func(l []labelFile) []labelFile { return []labelFile{l[1], l[0]} },
		"first missing": func(l []labelFile) []labelFile { return l[1:] },
		"renumbered":    func(l []labelFile) []labelFile { return []labelFile{{first: 1, crc: l[0].crc}, l[1]} },
	} {
		dir := filepath.Join(t.TempDir(), "snap")
		s := savedSnapshot(t, dir)
		addWindow(t, s, 3, 0)
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		labels, windows, err := loadManifest(raw)
		if err != nil || len(labels) != 2 {
			t.Fatalf("%d label files, err %v", len(labels), err)
		}
		forged := edit(labels)
		if forged[0].first == 1 {
			if err := os.Rename(filepath.Join(dir, labels[0].name()), filepath.Join(dir, forged[0].name())); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), renderManifest(forged, windows), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, Config{Capacity: 8}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("label files %s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}

// rewriteManifest replaces dir's manifest with one over the same label
// files and edit's window list, correctly checksummed — what bit rot
// cannot produce but a foreign or buggy writer could.
func rewriteManifest(t *testing.T, dir string, edit func([]windowFile) []windowFile) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	labels, windows, err := loadManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, renderManifest(labels, edit(windows)), 0o644); err != nil {
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

// TestSaveWritesOnlyNewWindows: window and label files are immutable,
// so a Save costs the windows the directory does not hold yet, the
// labels interned since the last one, and the manifest.
func TestSaveWritesOnlyNewWindows(t *testing.T) {
	reg := obs.NewRegistry()
	dir := filepath.Join(t.TempDir(), "snap")
	s := lineageStore(t, 0, reg)
	size := func(paths ...string) (total int64) {
		for _, path := range paths {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		return total
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

	first := save(s)
	want := size(manifest) + size(labelPaths(t, dir)...)
	for w := 0; w < 3; w++ {
		want += size(windowPath(t, dir, w))
	}
	if first != want || len(labelPaths(t, dir)) != 1 {
		t.Fatalf("first Save wrote %d bytes, files total %d (label files %v)", first, want, labelPaths(t, dir))
	}
	if got := save(s); got != size(manifest) {
		t.Fatalf("Save of an unchanged ring wrote %d bytes, manifest is %d", got, size(manifest))
	}
	// A window over labels the universe already holds: no label bytes.
	old := labelPaths(t, dir)
	if err := s.Add(buildSet(t, s.Universe(), 3, map[string]map[string]float64{"host-b": {"peer-1": 1}})); err != nil {
		t.Fatal(err)
	}
	if got, want := save(s), size(manifest)+size(windowPath(t, dir, 3)); got != want || !reflect.DeepEqual(labelPaths(t, dir), old) {
		t.Fatalf("Save after an Add over known labels wrote %d bytes, want manifest + one window = %d (label files %v, were %v)",
			got, want, labelPaths(t, dir), old)
	}
	// One over a new label: one more label file, holding only that.
	addWindow(t, s, 4, 0)
	got := save(s)
	files := labelPaths(t, dir)
	if len(files) != 2 || files[0] != old[0] || size(files[1]) != int64(len("peer-7"))+2 {
		t.Fatalf("label files %v after one new label, were %v", files, old)
	}
	if want := size(manifest) + size(windowPath(t, dir, 4)) + size(files[1]); got != want {
		t.Fatalf("Save after one new label wrote %d bytes, want manifest + one window + one label = %d", got, want)
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

// TestSaveLabelFilesStayLogarithmic: a hundred Saves that each add a
// few labels leave no more label files than the universe's size has
// bits (each file is at least twice the next), rewrite each label a
// logarithmic number of times rather than once a Save, and load back to
// the same NodeIDs.
func TestSaveLabelFilesStayLogarithmic(t *testing.T) {
	reg := obs.NewRegistry()
	dir := filepath.Join(t.TempDir(), "snap")
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 4, Universe: u, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	labelBytes := 0
	for w := 0; w < 100; w++ {
		sigs := map[string]map[string]float64{"host": {}}
		for i := 0; i <= w%4; i++ { // one to four new labels a window
			label := fmt.Sprintf("peer-%d-%d", w, i)
			sigs["host"][label] = float64(i + 1)
			labelBytes += len(label) + 2
		}
		if err := s.Add(buildSet(t, u, w, sigs)); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		files, max := labelPaths(t, dir), bits.Len(uint(u.Size()))
		if len(files) > max {
			t.Fatalf("after %d saves: %d label files for %d labels, want at most %d: %v", w+1, len(files), u.Size(), max, files)
		}
	}
	assertExactFiles(t, dir)
	assertEquivalent(t, dir, s)
	// Bytes written in all: 100 one-window files and manifests of a few
	// hundred bytes each, and the labels log₂(U) times over at most.
	written := reg.Snapshot()["store_snapshot_save_bytes_total"]
	if ceiling := int64(100*(400+300) + labelBytes*bits.Len(uint(u.Size()))); written > ceiling {
		t.Fatalf("100 saves wrote %d bytes, want under %d (%d label bytes)", written, ceiling, labelBytes)
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
	moved, err := durable.Quarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(moved, dir+".corrupt") {
		t.Fatalf("quarantined to %s", moved)
	}
	if SnapshotExists(dir) {
		t.Fatal("dir still reports a snapshot after quarantine")
	}
	// Second quarantine of a fresh corrupt dir picks a distinct name.
	savedSnapshot(t, dir)
	moved2, err := durable.Quarantine(dir)
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
	{"store.save.labels", false},
	{"store.save.labels.commit", false},
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
// loadable until the new manifest commits — whether the newcomer's
// universe has the old one's shape (same labels, same NodeIDs, other
// weights) or another altogether (other labels first, the shared ones
// renumbered: its label file starts at NodeID 0 like the old one's and
// says something else), and wherever its Save dies, the gap between its
// label file and its manifest included.
func TestSaveOverAnotherLineage(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("disk full")
	for name, mine := range map[string]*Store{
		"same universe":  lineageStore(t, 0.5, nil),
		"other universe": lineageStore(t, 0.5, nil, "zz-first", "peer-2", "host-b", "peer-1"),
	} {
		dir := filepath.Join(t.TempDir(), "snap")
		old := lineageStore(t, 0, nil)
		if err := old.Save(dir); err != nil {
			t.Fatal(err)
		}
		for _, point := range saveFailpoints {
			if point.committed {
				continue
			}
			fault.Set(point.name, func() error { return boom })
			if err := mine.Save(dir); !errors.Is(err, boom) {
				t.Fatalf("%s, %s: Save returned %v", name, point.name, err)
			}
			fault.Clear(point.name)
			assertEquivalent(t, dir, old)
		}
		if err := mine.Save(dir); err != nil {
			t.Fatal(err)
		}
		assertExactFiles(t, dir)
		assertEquivalent(t, dir, mine)

		// And the other way round: the first store's record of what it
		// wrote here is stale now (its files were swept), which Save must
		// notice.
		if err := old.Save(dir); err != nil {
			t.Fatal(err)
		}
		assertExactFiles(t, dir)
		assertEquivalent(t, dir, old)
	}
}

// TestLoadOldFormatRefused: a v1, v2 or v3 directory is good data this
// build no longer reads. Load must say so — not ErrCorrupt, which would
// get it quarantined — and leave every byte of it alone.
func TestLoadOldFormatRefused(t *testing.T) {
	// Each written by the last build of its format.
	for _, fixture := range []string{filepath.Join("testdata", "snapshot-v2"), filepath.Join("testdata", "snapshot-v3")} {
		contents := func() map[string]string {
			out := map[string]string{}
			for _, name := range dirNames(t, fixture) {
				raw, err := os.ReadFile(filepath.Join(fixture, name))
				if err != nil {
					t.Fatal(err)
				}
				out[name] = string(raw)
			}
			return out
		}
		before := contents()
		if !SnapshotExists(fixture) {
			t.Fatalf("%s not reported as a snapshot", fixture)
		}
		_, err := Load(fixture, Config{Capacity: 8})
		if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load(%s) = %v, want ErrOldFormat and not ErrCorrupt", fixture, err)
		}
		if after := contents(); !reflect.DeepEqual(after, before) {
			t.Fatalf("Load changed %s: %v -> %v", fixture, before, after)
		}
	}
}

// BenchmarkStoreSave is the checkpoint a window close makes, at the
// `wide` serving shape: a full ring of 8 × 1 200 signatures over a
// universe of 10 800 labels, one new window since the last Save and
// either no new label (every steady-state close of both BENCHMARK.json
// workloads) or 500. bytes-written/op is what Save reports having
// written: one window file, the labels it added — with what the new
// label file absorbed — and the manifest; never the universe.
func BenchmarkStoreSave(b *testing.B) {
	for _, fresh := range []int{0, 500} {
		b.Run(fmt.Sprintf("newlabels=%d", fresh), func(b *testing.B) {
			reg := obs.NewRegistry()
			s, more := wideStoreAndMore(b, Config{Registry: reg}, 0, 8, 1200)
			u := s.Universe()
			for u.Size() < 10800 {
				u.MustIntern(fmt.Sprintf("seen-%05d", u.Size()), graph.PartNone)
			}
			dir := filepath.Join(b.TempDir(), "snap")
			if err := s.Save(dir); err != nil {
				b.Fatal(err)
			}
			before := reg.Snapshot()["store_snapshot_save_bytes_total"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				more()
				for n := 0; n < fresh; n++ {
					u.MustIntern(fmt.Sprintf("new-%d-%d", i, n), graph.PartNone)
				}
				b.StartTimer()
				if err := s.Save(dir); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(reg.Snapshot()["store_snapshot_save_bytes_total"]-before)/float64(b.N), "bytes-written/op")
		})
	}
}
