package store

import (
	"errors"
	"fmt"
	"math"
	"os"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/segment"
)

// Tiered storage: the ring holds the hot, most recent Capacity windows
// in RAM exactly as before; behind it, an optional cold tier of
// immutable segment files (internal/segment) receives every window the
// ring evicts. History, windowed Search and the per-window accessor
// transparently fall through to the segments, so a node with a small
// Capacity still serves months of archive — the unlock for the paper's
// §V long-horizon persistence and multi-week uniqueness analyses.
//
// Invariants:
//   - Compaction precedes eviction: a window leaves RAM only after its
//     segment file is durable (staged, fsynced, renamed). If the write
//     fails the ring temporarily exceeds Capacity and the compaction is
//     retried at the next eviction — degraded RAM bounds, never lost
//     acked data (the same posture as "keep the WAL when a snapshot
//     save fails").
//   - Segments and the ring may overlap after a crash: a window can be
//     both in a segment and in the last pre-crash snapshot's ring.
//     Readers resolve the overlap by serving windows >= the ring's
//     oldest from the ring; segment content is bit-identical anyway
//     (the block codec is deterministic), so either copy is correct.
//   - The cold tier's window set only grows (modulo explicit retention
//     pruning); tier.last marks the newest compacted window so a
//     crash-replay re-eviction of an already-compacted window drops it
//     without rewriting the file.

// segTier is the store's cold-tier state, guarded by Store.mu.
type segTier struct {
	dir  string
	segs []*segment.Segment // ascending, non-overlapping window ranges
	last int                // newest window covered by any segment
}

// ErrColdRead marks a lookup or search that failed reading a cold-tier
// block — the archive's fault, not an absent label or a bad request.
var ErrColdRead = errors.New("cold-tier read failed")

// readBlockLocked reads and verifies the block of window w of seg,
// decoding no signature, and counts the load or the failure. Callers
// hold s.mu.
func (s *Store) readBlockLocked(seg *segment.Segment, w int) (*segment.Block, error) {
	b, err := seg.ReadBlock(w)
	if err != nil {
		s.obs.segErrors.Add(1)
		return nil, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	s.obs.segLoads.Add(1)
	return b, nil
}

// readColdLocked is readBlockLocked for the callers that hand out the
// whole window.
func (s *Store) readColdLocked(seg *segment.Segment, w int) (*core.SignatureSet, error) {
	b, err := s.readBlockLocked(seg, w)
	if err != nil {
		return nil, err
	}
	defer b.Release()
	set, err := b.Set()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrColdRead, err)
	}
	return set, nil
}

// readRowLocked is readBlockLocked for the callers that want one label's
// row of the window: v's signature in it, copied out of the block
// before the block is released. ok is false when v is no source there.
func (s *Store) readRowLocked(seg *segment.Segment, w int, v graph.NodeID) (e HistoryEntry, ok bool, err error) {
	b, err := s.readBlockLocked(seg, w)
	if err != nil {
		return HistoryEntry{}, false, err
	}
	defer b.Release()
	row, ok := b.Row(v)
	if !ok {
		return HistoryEntry{}, false, nil
	}
	return HistoryEntry{Window: b.Window(), Scheme: b.Scheme(), Sig: b.Sig(row)}, true, nil
}

// SegmentStats reports what AttachSegments found on disk.
type SegmentStats struct {
	Segments    int      // segment files attached
	Windows     int      // window blocks across them
	Quarantined []string // corrupt files renamed aside
}

// AttachSegments enables the cold tier: dir is created (and its name
// synced; failpoint store.segments.dirsync) if needed, stale
// .tmp leftovers from crashed compactions are removed, and every
// segment file is opened and checksum-verified. Corrupt files (torn
// tails, flipped bytes, overlapping ranges) are quarantined aside like
// a corrupt WAL and reported in the stats — boot continues without
// them. A file in a format this build no longer reads
// (segment.ErrOldFormat) is not corrupt: the error is returned, and
// since every file is opened before any is moved, with the directory as
// it was found. Call once at construction time, after any snapshot Load
// (label interning order must follow the snapshot manifest first);
// segment labels missing from the universe are interned here,
// single-threaded.
func (s *Store) AttachSegments(dir string) (SegmentStats, error) {
	var st SegmentStats
	if dir == "" {
		return st, fmt.Errorf("store: segments need a directory")
	}
	if err := segment.MkdirSynced(dir, "store.segments.dirsync"); err != nil {
		return st, fmt.Errorf("store: segments: %w", err)
	}
	paths, err := segment.List(dir)
	if err != nil {
		return st, fmt.Errorf("store: segments: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	opened := make([]*segment.Segment, len(paths)) // nil: corrupt
	for i, p := range paths {
		seg, err := segment.Open(p, s.universe)
		if err != nil && !errors.Is(err, segment.ErrCorrupt) {
			return st, fmt.Errorf("store: segments: %w", err)
		}
		opened[i] = seg
	}
	t := &segTier{dir: dir, last: math.MinInt}
	for i, p := range paths {
		// Overlapping ranges mean two files disagree about the same
		// history; keep the established earlier file, set the newcomer
		// aside as evidence, like a corrupt one.
		seg := opened[i]
		if seg == nil || (len(t.segs) > 0 && seg.First() <= t.last) {
			q, err := segment.Quarantine(p)
			if err != nil {
				return st, fmt.Errorf("store: segments: %w", err)
			}
			st.Quarantined = append(st.Quarantined, q)
			s.obs.segQuarantines.Add(1)
			continue
		}
		t.segs = append(t.segs, seg)
		t.last = seg.Last()
		st.Segments++
		st.Windows += seg.Len()
	}
	s.tier = t
	return st, nil
}

// SegmentDir returns the cold tier's directory ("" when disabled).
func (s *Store) SegmentDir() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier == nil {
		return ""
	}
	return s.tier.dir
}

// SegmentCount reports the number of attached segment files.
func (s *Store) SegmentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier == nil {
		return 0
	}
	return len(s.tier.segs)
}

// SegmentWindows reports how many windows the cold tier serves — i.e.
// segment windows not shadowed by the hot ring.
func (s *Store) SegmentWindows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs, bound := s.tierSegsLocked()
	n := 0
	for _, seg := range segs {
		for _, w := range seg.Windows() {
			if w < bound {
				n++
			}
		}
	}
	return n
}

// tierSegsLocked returns the segment handles (ascending) and the hot
// ring's oldest window. Segment windows >= that bound are shadowed by
// the ring (crash-replay overlap) and must be skipped by merging
// readers. Callers hold s.mu.
func (s *Store) tierSegsLocked() ([]*segment.Segment, int) {
	bound := math.MaxInt
	if len(s.ring) > 0 {
		bound = s.ring[0].set.Window
	}
	if s.tier == nil {
		return nil, bound
	}
	return s.tier.segs, bound
}

// compactLocked compacts the first `over` ring entries into a new
// segment file and reports how many of them may now be evicted (a
// prefix of the ring). Windows already covered by a segment — a
// crash-replay re-adding evicted history — are droppable without a
// write. On a write failure every uncompacted window stays in RAM and
// the attempt is retried at the next eviction: no acked window is ever
// dropped without a durable copy. Caller holds s.mu.
func (s *Store) compactLocked(over int) int {
	t := s.tier
	covered := 0
	for covered < over && s.ring[covered].set.Window <= t.last {
		covered++
	}
	if covered == over {
		return over
	}
	sets := make([]*core.SignatureSet, 0, over-covered)
	for _, e := range s.ring[covered:over] {
		sets = append(sets, e.set)
	}
	seg, err := segment.Write(t.dir, sets, s.universe)
	if err != nil {
		s.obs.segErrors.Add(1)
		return covered
	}
	t.segs = append(t.segs, seg)
	t.last = seg.Last()
	s.pruneSegmentsLocked()
	return over
}

// pruneSegmentsLocked applies the retention policy: with SegmentRetain
// set, the oldest segment files beyond the bound are deleted — an
// explicit operator trade of history depth for disk. Caller holds s.mu.
func (s *Store) pruneSegmentsLocked() {
	t := s.tier
	if s.cfg.SegmentRetain <= 0 {
		return
	}
	for len(t.segs) > s.cfg.SegmentRetain {
		if err := os.Remove(t.segs[0].Path()); err != nil && !os.IsNotExist(err) {
			s.obs.segErrors.Add(1)
			return
		}
		t.segs = t.segs[1:]
		s.obs.segPruned.Add(1)
	}
}

// snapshotTier snapshots the windows a search must scan: the hot ring,
// preceded by cold-tier windows when the requested depth reaches past
// RAM (lastWindows == 0 means the full archive). Cold blocks are read
// and verified — not decoded — under the read lock: segment files are
// immutable, but retention pruning deletes them, under the write lock,
// so a handle is only good for a read while the read lock is held.
func (s *Store) snapshotTier(lastWindows int) ([]entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ring := make([]entry, len(s.ring))
	copy(ring, s.ring)
	segs, bound := s.tierSegsLocked()
	if len(segs) == 0 || (lastWindows > 0 && lastWindows <= len(ring)) {
		return ring, nil
	}
	need := -1 // unbounded
	if lastWindows > 0 {
		need = lastWindows - len(ring)
	}
	var cold []entry // newest first while collecting
	for i := len(segs) - 1; i >= 0 && need != 0; i-- {
		wins := segs[i].Windows()
		for j := len(wins) - 1; j >= 0 && need != 0; j-- {
			if wins[j] >= bound {
				continue
			}
			b, err := s.readBlockLocked(segs[i], wins[j])
			if err != nil {
				releaseCold(cold)
				return nil, err
			}
			cold = append(cold, entry{block: b})
			if need > 0 {
				need--
			}
		}
	}
	out := make([]entry, 0, len(cold)+len(ring))
	for i := len(cold) - 1; i >= 0; i-- {
		out = append(out, cold[i])
	}
	return append(out, ring...), nil
}

// Window returns the signature set of window w from the hot ring or,
// falling through, the cold tier. A window the archive does not hold
// yields (nil, nil).
func (s *Store) Window(w int) (*core.SignatureSet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].set.Window == w {
			return s.ring[i].set, nil
		}
		if s.ring[i].set.Window < w {
			return nil, nil
		}
	}
	segs, bound := s.tierSegsLocked()
	if w >= bound {
		return nil, nil
	}
	for _, seg := range segs {
		if seg.Contains(w) {
			return s.readColdLocked(seg, w)
		}
	}
	return nil, nil
}

// HistoryRange returns the archived signatures of label within the
// inclusive window bounds [from, to], oldest first, from both tiers.
// With limit > 0 only the newest limit matches are returned (still in
// ascending order) and truncated reports whether older matches were cut
// — the bound that keeps one HTTP response from carrying months of
// archive. Pass math.MinInt/math.MaxInt/0 for the unbounded form.
func (s *Store) HistoryRange(label string, from, to, limit int) (entries []HistoryEntry, truncated bool, err error) {
	v, ok := s.universe.Lookup(label)
	if !ok || to < from {
		return nil, false, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var rev []HistoryEntry // newest first while collecting
	full := limit <= 0
	done := false
	for i := len(s.ring) - 1; i >= 0 && !done; i-- {
		set := s.ring[i].set
		if set.Window < from || set.Window > to {
			continue
		}
		if sig, ok := set.Get(v); ok {
			if !full && len(rev) >= limit {
				truncated, done = true, true
				break
			}
			rev = append(rev, HistoryEntry{Window: set.Window, Scheme: set.Scheme, Sig: sig})
		}
	}
	segs, bound := s.tierSegsLocked()
	for i := len(segs) - 1; i >= 0 && !done; i-- {
		wins := segs[i].LabelWindows(label)
		for j := len(wins) - 1; j >= 0 && !done; j-- {
			w := wins[j]
			if w >= bound || w > to {
				continue
			}
			if w < from {
				break
			}
			// The index lists only windows where label is a source, so
			// this window is a match; past the limit its existence alone
			// proves truncation.
			if !full && len(rev) >= limit {
				truncated, done = true, true
				break
			}
			e, ok, rerr := s.readRowLocked(segs[i], w, v)
			if rerr != nil {
				return nil, false, rerr
			}
			if ok {
				rev = append(rev, e)
			}
		}
	}
	entries = make([]HistoryEntry, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		entries = append(entries, rev[i])
	}
	return entries, truncated, nil
}
