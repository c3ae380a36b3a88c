package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
	"graphsig/internal/segment"
)

// A snapshot is a directory of immutable files under one manifest:
//
//	MANIFEST
//	labels-000000000-5e6f7a8b        the universe's labels, NodeID order
//	labels-000010240-0c1d2e3f
//	window-000000007-1a2b3c4d.seg    one per ring window
//
// A window file is a one-window segment (internal/segment: binary
// block, TOC, self-checksummed footer) named after its window index and
// the CRC32 of its bytes; a label file holds the labels and parts of
// consecutive NodeIDs (binary: uvarint length, label, part byte) and is
// named after the first of them and the CRC32 of its bytes. Different
// contents never share a name, and a file, once written, is never
// written again. The manifest is text:
//
//	graphsig-store v4
//	labels 0 5e6f7a8b                the label files, NodeID order
//	labels 10240 0c1d2e3f
//	window 7 1a2b3c4d                the ring's files, oldest first
//	crc 89abcdef                     CRC32 of every byte above
//
// The labels are there because signature canonical order breaks weight
// ties by NodeID: a reload must intern them in the original order
// before it opens any window file, or nodes shared across windows get
// permuted IDs and tie ordering breaks. They are in files of their own
// because a universe only grows: a Save writes the labels interned
// since the last one, not the universe again (see saveLabels).
//
// Renaming the staged manifest over MANIFEST is the only commit point:
// before it the previous snapshot loads, after it the new one, and
// nothing in between needs repair (DESIGN.md §8).

const (
	manifestName     = "MANIFEST"
	quarantineSuffix = ".corrupt"
)

// ErrCorrupt marks a snapshot that is structurally broken — bad
// checksum, truncated or missing files, malformed manifest — as
// opposed to an I/O failure reaching it. Corrupt snapshots are safe to
// Quarantine; I/O errors are not.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// ErrOldFormat marks a healthy snapshot in a format this build does not
// read (graphsig-store v1/v2: text window files; v3: every label in the
// manifest). It is not ErrCorrupt:
// the data is good and must not be quarantined or overwritten (README,
// "Upgrading").
var ErrOldFormat = errors.New("store: snapshot in an unsupported older format")

// corruptf wraps a structural-corruption error so errors.Is(err,
// ErrCorrupt) holds.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Save writes a point-in-time snapshot of the store into dir, which the
// first Save creates and syncs into its parent: the window files this
// store has not already written or loaded there, one
// label file if the universe grew, then the manifest, whose rename
// commits, then the deletion of every file the new manifest does not
// name. An error from before the rename
// leaves dir loading as it did, one from after it (the sweep) leaves
// the new snapshot in place; the next Save that succeeds clears what
// either left behind. Concurrent Saves of one store are serialized.
//
// Failpoints: store.save.dirsync (the sync of a new dir's name),
// store.save.window and .window.commit (a window file's
// write and rename — not segment.write/.commit, which stay the
// compactor's), store.save.labels and .labels.commit (the label
// file's), store.save.manifest (staged, not renamed) and
// store.save.sweep (committed, nothing deleted yet).
func (s *Store) Save(dir string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	begin := time.Now()
	if err := segment.MkdirSynced(dir, "store.save.dirsync"); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if s.savedDir != dir {
		s.savedDir, s.saved, s.savedLabels = dir, map[int]uint32{}, nil
	}
	// Capture the ring under the read lock, then serialize outside it:
	// sets are immutable and the universe only grows.
	sets := s.Windows()
	windows := make([]windowFile, len(sets))
	owns := make(map[int]uint32, len(sets))
	keep := map[string]bool{manifestName: true}
	written := 0
	for i, set := range sets {
		w, n, err := s.saveWindowLocked(dir, set)
		if err != nil {
			return err
		}
		written += n
		windows[i], owns[w.window], keep[w.name()] = w, w.crc, true
	}
	labels, n, err := s.saveLabels(dir)
	if err != nil {
		return fmt.Errorf("store: snapshot labels: %w", err)
	}
	written += n
	for _, l := range labels {
		keep[l.name()] = true
	}
	manifest := renderManifest(labels, windows)
	if err := segment.CommitFile(filepath.Join(dir, manifestName), manifest, "", "store.save.manifest"); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.saved, s.savedLabels = owns, labels // committed: exactly what the manifest names
	s.obs.saveSeconds.ObserveSince(begin)
	s.obs.saveBytes.Add(int64(written + len(manifest)))
	if err := sweep(dir, keep); err != nil {
		return fmt.Errorf("store: snapshot committed, sweep: %w", err)
	}
	return nil
}

// saveWindowLocked makes set's window file one this store owns in dir,
// which is s.savedDir: the file is written unless the store owns it
// there already, and is recorded in s.saved. It reports the file and the
// bytes it wrote. Save calls it for every ring window; AddSaving for the
// window it has just accepted. Callers hold saveMu.
func (s *Store) saveWindowLocked(dir string, set *core.SignatureSet) (windowFile, int, error) {
	w := windowFile{window: set.Window}
	var owned bool
	if w.crc, owned = s.saved[w.window]; owned {
		// Reuse is by ownership, never by name alone; the Stat only
		// notices a file deleted under this store.
		if _, err := os.Stat(filepath.Join(dir, w.name())); err == nil {
			return w, 0, nil
		}
	}
	data, err := segment.Encode([]*core.SignatureSet{set}, s.universe)
	if err == nil {
		w.crc = crc32.ChecksumIEEE(data)
		err = segment.CommitFile(filepath.Join(dir, w.name()), data, "store.save.window", "store.save.window.commit")
	}
	if err != nil {
		return w, 0, fmt.Errorf("store: snapshot window %d: %w", w.window, err)
	}
	s.saved[w.window] = w.crc
	return w, len(data), nil
}

// saveLabels returns the label files that cover the universe as it is
// now — every label a captured window can name, since the universe only
// grows — and how many bytes it wrote to get there. The files this
// store owns in dir (s.savedLabels, checked still to be there) are
// kept; labels interned since go into one new file, which first absorbs
// every trailing file less than twice its size. So each file is at
// least twice the next, there are at most log₂ of the universe's size
// of them, and a label is rewritten only into a file half as large
// again as the one it leaves: a Save costs the labels it adds (and,
// amortised, a logarithm more), never the universe.
func (s *Store) saveLabels(dir string) ([]labelFile, int, error) {
	files, covered := s.savedLabels, 0
	for _, l := range files {
		if _, err := os.Stat(filepath.Join(dir, l.name())); err != nil {
			files, covered = nil, 0
			break
		}
		covered += l.count
	}
	end := s.universe.Size()
	if covered == end {
		return files, 0, nil
	}
	first := covered
	for len(files) > 0 && files[len(files)-1].count < 2*(end-first) {
		first = files[len(files)-1].first
		files = files[:len(files)-1]
	}
	data := encodeLabels(s.universe, first, end)
	l := labelFile{first: first, crc: crc32.ChecksumIEEE(data), count: end - first}
	if err := segment.CommitFile(filepath.Join(dir, l.name()), data, "store.save.labels", "store.save.labels.commit"); err != nil {
		return nil, 0, err
	}
	return append(files[:len(files):len(files)], l), len(data), nil
}

// sweep deletes every entry of dir that keep does not name: files of
// windows that left the ring, of another lineage, stale .tmp stages.
func sweep(dir string, keep map[string]bool) error {
	if err := fault.Inject("store.save.sweep"); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if keep[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotExists reports whether dir holds a committed snapshot.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Quarantine renames a snapshot directory that failed to Load aside
// (dir.corrupt, dir.corrupt.1, ...) and returns the new path, so the
// caller can boot with a fresh store while keeping the evidence.
func Quarantine(dir string) (string, error) {
	dst := dir + quarantineSuffix
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", dir, quarantineSuffix, i)
	}
	if err := os.Rename(dir, dst); err != nil {
		return "", fmt.Errorf("store: quarantine: %w", err)
	}
	return dst, nil
}

// Load rebuilds a store from a snapshot directory, interning every
// label into cfg.Universe (a fresh one when nil) in label-file order. An
// over-capacity snapshot — a tiered server checkpoints one after a
// failed compaction deferred eviction — loads in full: trimming here
// would drop the only copy of an acked window before AttachSegments can
// wire the cold tier; the surplus is compacted (or, untiered, evicted)
// on the next live Add. Structural damage — a flipped byte anywhere, a
// truncated, missing or foreign window or label file — is ErrCorrupt
// (quarantine and boot fresh), a v1–v3 manifest ErrOldFormat (leave it
// alone), an
// I/O error neither. Load writes nothing.
func Load(dir string, cfg Config) (*Store, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	labels, windows, err := loadManifest(raw)
	if err != nil {
		return nil, err
	}
	base := s.universe.Size()
	for i := range labels {
		l := &labels[i]
		data, err := os.ReadFile(filepath.Join(dir, l.name()))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil, corruptf("%v", err)
		case err != nil:
			return nil, fmt.Errorf("store: snapshot: %w", err)
		case crc32.ChecksumIEEE(data) != l.crc:
			return nil, corruptf("%s fails the checksum in its name", l.name())
		case base+l.first != s.universe.Size():
			return nil, corruptf("%s does not start where the labels before it end (%d)", l.name(), s.universe.Size()-base)
		}
		if l.count, err = loadLabels(data, s.universe, base+l.first); err != nil {
			return nil, err
		}
	}
	s.savedDir, s.saved = dir, make(map[int]uint32, len(windows))
	if base == 0 {
		// Over a universe that already held labels the files' numbering
		// is not this store's; its next Save writes its own.
		s.savedLabels = labels
	}
	for _, w := range windows {
		set, err := readWindowFile(dir, w, s.universe)
		if errors.Is(err, segment.ErrCorrupt) || errors.Is(err, fs.ErrNotExist) {
			err = corruptf("%v", err)
		}
		if err == nil {
			s.loading = true
			err = s.Add(set)
			s.loading = false
		}
		if err != nil {
			return nil, err
		}
		s.saved[w.window] = w.crc
	}
	return s, nil
}

// readWindowFile opens w's file under dir and decodes its one window.
// Every label in it must already be in u, from the label files.
func readWindowFile(dir string, w windowFile, u *graph.Universe) (*core.SignatureSet, error) {
	labels := u.Size()
	seg, err := segment.Open(filepath.Join(dir, w.name()), u)
	if err != nil {
		return nil, err
	}
	if seg.Len() != 1 || seg.First() != w.window {
		return nil, corruptf("%s holds windows %v, manifest says %d", w.name(), seg.Windows(), w.window)
	}
	if u.Size() != labels {
		// Interned just now, so under a NodeID the writer never gave it.
		return nil, corruptf("%s names a label the manifest does not", w.name())
	}
	return seg.ReadWindow(w.window)
}
