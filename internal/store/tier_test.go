package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
)

// tierSet builds a small deterministic window where each of a few
// labels talks to a rotating peer set — enough churn that histories
// and search rankings differ across windows — beside one that is a
// source with nothing to say.
func tierSet(t *testing.T, u *graph.Universe, w int) *core.SignatureSet {
	t.Helper()
	sigs := map[string]map[string]float64{"idle": {}}
	for i := 0; i < 3; i++ {
		label := fmt.Sprintf("host-%d", i)
		peers := map[string]float64{}
		for j := 0; j < 2+((w+i)%2); j++ {
			peers[fmt.Sprintf("peer-%d", (w+i+j)%5)] = float64(j+1) / float64(w+3)
		}
		sigs[label] = peers
	}
	return buildSet(t, u, w, sigs)
}

// newTieredStore builds a store with an attached (empty) segment dir.
func newTieredStore(t *testing.T, cfg Config, dir string) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachSegments(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreDirectorySyncFailpoint: a directory the store creates — the
// segment directory at AttachSegments, the snapshot directory at the
// first Save — is made durable then, and only then: the directory above
// each level it created is synced (both start here with a missing
// parent). When that sync fails the error is the call's and the new
// directories are gone, so the next call creates, and syncs, them anew;
// a call over a directory that exists syncs nothing.
func TestStoreDirectorySyncFailpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("injected directory sync failure")
	for _, c := range []struct {
		point string
		make  func(s *Store, dir string) error
	}{
		{"store.segments.dirsync", func(s *Store, dir string) error { _, err := s.AttachSegments(dir); return err }},
		{"store.save.dirsync", (*Store).Save},
	} {
		t.Run(c.point, func(t *testing.T) {
			fresh := func() *Store {
				s, err := New(Config{Capacity: 4})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			parent := filepath.Join(t.TempDir(), "new")
			dir := filepath.Join(parent, "dir")
			fault.Set(c.point, func() error { return boom })
			if err := c.make(fresh(), dir); !errors.Is(err, boom) {
				t.Fatalf("a failing directory sync returned %v", err)
			}
			if _, err := os.Stat(parent); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a failed creation left its directories behind: %v", err)
			}
			syncs := 0
			fault.Set(c.point, func() error { syncs++; return nil })
			for i := 0; i < 2; i++ {
				if err := c.make(fresh(), dir); err != nil {
					t.Fatal(err)
				}
			}
			if syncs != 1 {
				t.Fatalf("%d directory syncs over a creation and a reuse; want 1", syncs)
			}
		})
	}
}

// quarterJaccard is a distance the store knows nothing about, under
// which signatures sharing no node lie at 0.25 — inside every bound the
// tests search under, so a cold scan that left such rows out, as it may
// under a registered distance, would lose hits.
type quarterJaccard struct{}

func (quarterJaccard) Name() string { return "quarter-jaccard" }

func (quarterJaccard) Dist(a, b core.Signature) float64 { return core.Jaccard{}.Dist(a, b) / 4 }

// TestStoreTieredMatchesUnbounded is the core acceptance property: a
// Capacity=N store with segments, fed 5N windows, answers History,
// windowed Search and per-window reads bit-identically to an unbounded
// in-memory store fed the same stream — and so does a store that
// attached the same segment files into a universe that had met the
// labels in the opposite order.
func TestStoreTieredMatchesUnbounded(t *testing.T) {
	const capacity, total = 4, 20
	segDir := filepath.Join(t.TempDir(), "segments")
	tu := graph.NewUniverse()
	tiered := newTieredStore(t, Config{Capacity: capacity, Universe: tu}, segDir)
	ru := graph.NewUniverse()
	ref, err := New(Config{Capacity: 10 * total, Universe: ru})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < total; w++ {
		if err := tiered.Add(tierSet(t, tu, w)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(tierSet(t, ru, w)); err != nil {
			t.Fatal(err)
		}
	}
	if tiered.Len() != capacity {
		t.Fatalf("hot ring holds %d windows, want %d", tiered.Len(), capacity)
	}
	if got := tiered.SegmentWindows(); got != total-capacity {
		t.Fatalf("cold tier holds %d windows, want %d", got, total-capacity)
	}
	assertTieredEqualsRef(t, tiered, ref)

	fu := graph.NewUniverse()
	for id := tu.Size() - 1; id >= 0; id-- {
		fu.MustIntern(tu.Label(graph.NodeID(id)), tu.PartOf(graph.NodeID(id)))
	}
	foreign := newTieredStore(t, Config{Capacity: capacity, Universe: fu}, segDir)
	for w := total - capacity; w < total; w++ {
		if err := foreign.Add(tierSet(t, fu, w)); err != nil {
			t.Fatal(err)
		}
	}
	if got := foreign.SegmentWindows(); got != total-capacity {
		t.Fatalf("foreign-order store serves %d cold windows, want %d", got, total-capacity)
	}
	assertTieredEqualsRef(t, foreign, ref)
}

// assertTieredEqualsRef cross-checks every read path of a tiered store
// against an unbounded reference holding the same stream: histories and
// latest signatures member for member by label, and label searches hit
// for hit under every registered distance and one the store cannot know,
// with and without a distance bound, excluding the query's own label or
// another.
func assertTieredEqualsRef(t *testing.T, tiered, ref *Store) {
	t.Helper()
	sameSig := func(want, got core.Signature) bool {
		if want.Len() != got.Len() {
			return false
		}
		for i := range want.Nodes {
			if ref.universe.Label(want.Nodes[i]) != tiered.universe.Label(got.Nodes[i]) ||
				math.Float64bits(want.Weights[i]) != math.Float64bits(got.Weights[i]) {
				return false
			}
		}
		return true
	}
	lo, hi, ok := tiered.WindowRange()
	rlo, rhi, rok := ref.WindowRange()
	if ok != rok || lo != rlo || hi != rhi {
		t.Fatalf("range [%d,%d]/%v, want [%d,%d]/%v", lo, hi, ok, rlo, rhi, rok)
	}
	for w := lo; w <= hi; w++ {
		want, _ := ref.Window(w)
		got, err := tiered.Window(w)
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("window %d: tiered=%v ref=%v", w, got != nil, want != nil)
		}
	}
	for _, label := range []string{"host-0", "host-1", "host-2", "idle"} {
		want := ref.History(label)
		got := tiered.History(label)
		if len(want) != len(got) {
			t.Fatalf("%s history: %d entries, want %d", label, len(got), len(want))
		}
		for j := range want {
			if want[j].Window != got[j].Window || want[j].Scheme != got[j].Scheme ||
				!sameSig(want[j].Sig, got[j].Sig) {
				t.Fatalf("%s history entry %d differs", label, j)
			}
		}
		wsig, ww, wok := ref.LatestSignature(label)
		gsig, gw, gok := tiered.LatestSignature(label)
		if wok != gok || ww != gw || !sameSig(wsig, gsig) {
			t.Fatalf("%s latest signature differs", label)
		}
		if wok == (label == "idle") {
			t.Fatalf("%s: latest signature found = %v", label, wok)
		}
		for _, d := range append([]core.Distance{quarterJaccard{}}, allDistances...) {
			for _, maxDist := range []float64{0.3, 1} {
				for _, exclude := range []string{"", "host-1"} {
					for _, last := range []int{0, 3, hi - lo + 1} {
						opts := SearchOptions{TopK: 50, MaxDist: maxDist, ExcludeLabel: exclude, LastWindows: last}
						wantHits, werr := ref.SearchLabel(d, label, opts)
						gotHits, gerr := tiered.SearchLabel(d, label, opts)
						if (werr != nil) != (gerr != nil) || (werr != nil) != (label == "idle") {
							t.Fatalf("%s %s search %+v: err %v, reference %v", label, d.Name(), opts, gerr, werr)
						}
						if len(wantHits) != len(gotHits) {
							t.Fatalf("%s %s search %+v: %d hits, want %d", label, d.Name(), opts, len(gotHits), len(wantHits))
						}
						for j := range wantHits {
							if wantHits[j].Label != gotHits[j].Label || wantHits[j].Window != gotHits[j].Window ||
								math.Float64bits(wantHits[j].Dist) != math.Float64bits(gotHits[j].Dist) {
								t.Fatalf("%s %s search %+v hit %d: %+v != %+v", label, d.Name(), opts, j, gotHits[j], wantHits[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestStoreTieredRestart proves the restart half of the acceptance
// criterion: snapshot + segments reload into a store that still serves
// all 5N windows identically to the unbounded reference.
func TestStoreTieredRestart(t *testing.T) {
	const capacity, total = 3, 15
	base := t.TempDir()
	segDir := filepath.Join(base, "segments")
	snapDir := filepath.Join(base, "snap")
	tu := graph.NewUniverse()
	tiered := newTieredStore(t, Config{Capacity: capacity, Universe: tu}, segDir)
	ru := graph.NewUniverse()
	ref, err := New(Config{Capacity: 10 * total, Universe: ru})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < total; w++ {
		if err := tiered.Add(tierSet(t, tu, w)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(tierSet(t, ru, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tiered.Save(snapDir); err != nil {
		t.Fatal(err)
	}

	reborn, err := Load(snapDir, Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	st, err := reborn.AttachSegments(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 0 {
		t.Fatalf("clean boot quarantined %v", st.Quarantined)
	}
	if st.Windows != total-capacity {
		t.Fatalf("attached %d cold windows, want %d", st.Windows, total-capacity)
	}
	assertTieredEqualsRef(t, reborn, ref)
}

// A failed segment write must defer eviction, not drop history: the
// ring grows past Capacity and the compaction retries on the next Add.
func TestStoreSegmentWriteFailureKeepsWindows(t *testing.T) {
	const capacity = 2
	segDir := filepath.Join(t.TempDir(), "segments")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u}, segDir)
	for w := 0; w < capacity; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	fault.Set("segment.write", func() error { return fmt.Errorf("disk full") })
	if err := s.Add(tierSet(t, u, capacity)); err != nil {
		t.Fatalf("add failed outright on compaction error: %v", err)
	}
	fault.Reset()
	if s.Len() != capacity+1 {
		t.Fatalf("ring len %d after deferred eviction, want %d", s.Len(), capacity+1)
	}
	if got := s.History("host-0"); len(got) != capacity+1 {
		t.Fatalf("history lost entries during failed compaction: %d", len(got))
	}
	// The retry at the next eviction drains the backlog in one file.
	if err := s.Add(tierSet(t, u, capacity+1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != capacity {
		t.Fatalf("ring len %d after retry, want %d", s.Len(), capacity)
	}
	if got := s.SegmentWindows(); got != 2 {
		t.Fatalf("cold tier holds %d windows after retry, want 2", got)
	}
	if got := s.History("host-0"); len(got) != capacity+2 {
		t.Fatalf("history = %d entries, want %d", len(got), capacity+2)
	}
}

// A crash mid-compaction (before the rename commits) leaves only a
// stale .tmp; the next boot cleans it up and serves everything the
// snapshot acked — no window is lost, none is double-counted.
func TestStoreSegmentCrashMidCompaction(t *testing.T) {
	const capacity = 2
	base := t.TempDir()
	segDir := filepath.Join(base, "segments")
	snapDir := filepath.Join(base, "snap")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u}, segDir)
	for w := 0; w < capacity; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(snapDir); err != nil {
		t.Fatal(err)
	}
	// The eviction's segment write tears between stage and commit.
	fault.Set("segment.commit", func() error { return fmt.Errorf("crash") })
	if err := s.Add(tierSet(t, u, capacity)); err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	// "Crash": discard the store, boot from disk.
	reborn, err := Load(snapDir, Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	st, err := reborn.AttachSegments(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 || len(st.Quarantined) != 0 {
		t.Fatalf("attach after torn compaction: %+v", st)
	}
	entries, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale staging file survived boot: %s", e.Name())
		}
	}
	// Every window the snapshot acked is still served, exactly once.
	if got := reborn.History("host-0"); len(got) != capacity {
		t.Fatalf("history = %d entries, want %d", len(got), capacity)
	}
}

// A crash after a FAILED compaction checkpoints an over-capacity ring:
// the snapshot is those windows' only durable copy. Load must keep all
// of them — trimming to Capacity before AttachSegments wires the tier
// would silently drop an acked window — and the next live Add drains
// the surplus into segments.
func TestStoreLoadOverCapacitySnapshot(t *testing.T) {
	const capacity = 2
	base := t.TempDir()
	segDir := filepath.Join(base, "segments")
	snapDir := filepath.Join(base, "snap")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u}, segDir)
	for w := 0; w < capacity; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction fails, eviction defers, the ring grows to capacity+1 —
	// and the server's checkpoint loop snapshots exactly that state.
	fault.Set("segment.write", func() error { return fmt.Errorf("disk full") })
	if err := s.Add(tierSet(t, u, capacity)); err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	if err := s.Save(snapDir); err != nil {
		t.Fatal(err)
	}

	reborn, err := Load(snapDir, Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	if got := reborn.Len(); got != capacity+1 {
		t.Fatalf("loaded ring holds %d windows, want %d (acked window evicted at boot)", got, capacity+1)
	}
	if _, err := reborn.AttachSegments(segDir); err != nil {
		t.Fatal(err)
	}
	if got := reborn.History("host-0"); len(got) != capacity+1 {
		t.Fatalf("history = %d entries after reboot, want %d", len(got), capacity+1)
	}
	// The first live Add compacts the surplus; nothing is lost.
	if err := reborn.Add(tierSet(t, u, capacity+1)); err != nil {
		t.Fatal(err)
	}
	if reborn.Len() != capacity {
		t.Fatalf("ring len %d after drain, want %d", reborn.Len(), capacity)
	}
	if got := reborn.SegmentWindows(); got != 2 {
		t.Fatalf("cold tier holds %d windows after drain, want 2", got)
	}
	if got := reborn.History("host-0"); len(got) != capacity+2 {
		t.Fatalf("history = %d entries after drain, want %d", len(got), capacity+2)
	}
}

// Snapshot ring and segments may overlap after a crash-replay; readers
// must serve each window exactly once.
func TestStoreTieredOverlapNoDuplicates(t *testing.T) {
	const total = 6
	base := t.TempDir()
	segDir := filepath.Join(base, "segments")
	snapDir := filepath.Join(base, "snap")

	// A small tiered store compacts windows 0..3 into segments.
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: 2, Universe: u}, segDir)
	for w := 0; w < total; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	// A big store snapshots the full stream — its ring overlaps every
	// segment window.
	u2 := graph.NewUniverse()
	big, err := New(Config{Capacity: 100, Universe: u2})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < total; w++ {
		if err := big.Add(tierSet(t, u2, w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Save(snapDir); err != nil {
		t.Fatal(err)
	}

	reborn, err := Load(snapDir, Config{Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reborn.AttachSegments(segDir); err != nil {
		t.Fatal(err)
	}
	if got := reborn.SegmentWindows(); got != 0 {
		t.Fatalf("fully shadowed tier serves %d windows, want 0", got)
	}
	if got := reborn.History("host-0"); len(got) != total {
		t.Fatalf("history = %d entries, want %d (duplicates?)", len(got), total)
	}
	hits, err := reborn.SearchLabel(core.Jaccard{}, "host-0", SearchOptions{TopK: 100})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range hits {
		key := fmt.Sprintf("%s@%d", h.Label, h.Window)
		if seen[key] {
			t.Fatalf("duplicate hit %s", key)
		}
		seen[key] = true
	}
}

// A corrupt segment file is quarantined at attach — boot continues with
// the healthy files, evidence preserved.
func TestStoreSegmentQuarantineAtAttach(t *testing.T) {
	const capacity, total = 2, 8
	segDir := filepath.Join(t.TempDir(), "segments")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u}, segDir)
	for w := 0; w < total; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(segDir, "*.seg"))
	if err != nil || len(files) < 2 {
		t.Fatalf("segment files = %v, %v", files, err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	st, err := fresh.AttachSegments(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || !strings.Contains(st.Quarantined[0], ".corrupt") {
		t.Fatalf("quarantined = %v", st.Quarantined)
	}
	if st.Segments != len(files)-1 {
		t.Fatalf("attached %d segments, want %d", st.Segments, len(files)-1)
	}
	if _, err := os.Stat(files[1]); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place")
	}
}

// SegmentRetain bounds the cold tier: oldest files go, the range
// shrinks accordingly, newer history stays intact.
func TestStoreSegmentRetention(t *testing.T) {
	const capacity, retain, total = 2, 3, 12
	segDir := filepath.Join(t.TempDir(), "segments")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u, SegmentRetain: retain}, segDir)
	for w := 0; w < total; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SegmentCount(); got != retain {
		t.Fatalf("cold tier holds %d files, want %d", got, retain)
	}
	files, err := filepath.Glob(filepath.Join(segDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != retain {
		t.Fatalf("%d files on disk, want %d", len(files), retain)
	}
	lo, _, ok := s.WindowRange()
	if !ok || lo != total-capacity-retain {
		t.Fatalf("oldest window %d after pruning, want %d", lo, total-capacity-retain)
	}
	// Retained history still reads back.
	got, _, err := s.HistoryRange("host-0", lo, math.MaxInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != capacity+retain {
		t.Fatalf("history = %d entries, want %d", len(got), capacity+retain)
	}
}

// HistoryRange's bounds and limit: the newest limit matches come back
// in ascending order with the truncation flag set.
func TestStoreHistoryRangeBounds(t *testing.T) {
	const capacity, total = 3, 12
	segDir := filepath.Join(t.TempDir(), "segments")
	u := graph.NewUniverse()
	s := newTieredStore(t, Config{Capacity: capacity, Universe: u}, segDir)
	for w := 0; w < total; w++ {
		if err := s.Add(tierSet(t, u, w)); err != nil {
			t.Fatal(err)
		}
	}
	full, truncated, err := s.HistoryRange("host-0", math.MinInt, math.MaxInt, 0)
	if err != nil || truncated {
		t.Fatalf("full range: truncated=%v err=%v", truncated, err)
	}
	if len(full) != total {
		t.Fatalf("full history = %d entries, want %d", len(full), total)
	}
	got, truncated, err := s.HistoryRange("host-0", 2, 7, 0)
	if err != nil || truncated {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0].Window != 2 || got[5].Window != 7 {
		t.Fatalf("windowed history = %v", got)
	}
	got, truncated, err = s.HistoryRange("host-0", math.MinInt, math.MaxInt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("limit hit but truncated not reported")
	}
	if len(got) != 4 || got[0].Window != total-4 || got[3].Window != total-1 {
		t.Fatalf("limited history = %v", got)
	}
	// Limit larger than the archive: everything, no truncation flag.
	got, truncated, err = s.HistoryRange("host-0", math.MinInt, math.MaxInt, total+5)
	if err != nil || truncated || len(got) != total {
		t.Fatalf("oversized limit: %d entries truncated=%v err=%v", len(got), truncated, err)
	}
	if _, truncated, err := s.HistoryRange("nobody", math.MinInt, math.MaxInt, 0); err != nil || truncated {
		t.Fatal("unknown label errs")
	}
}
