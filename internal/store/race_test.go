package store

import (
	"fmt"
	"sync"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// TestSearchEvictionInterleaving is the -race regression for the
// lock-free Search scan (PR 3 made distance work run outside the store
// lock): Add-driven eviction must never invalidate the ring snapshot a
// concurrent Search is walking. The audit that accompanies this test:
// Search copies the ring under RLock; eviction in Add replaces the
// ring with a freshly allocated backing array (append(s.ring[:0:0],
// ...)) instead of resclicing in place, and entries hold pointers to
// immutable sets/indexes/views — so a snapshot taken before an
// eviction stays fully readable after it. This test keeps that true by
// construction: under -race, any future in-place mutation of a shared
// backing array or entry becomes a reported data race here.
func TestSearchEvictionInterleaving(t *testing.T) {
	// Pre-intern every label so concurrent readers never race universe
	// mutation (that contract belongs to the caller; see package doc).
	u := graph.NewUniverse()
	const labels = 8
	ids := make([]graph.NodeID, labels)
	for i := range ids {
		ids[i] = u.MustIntern(fmt.Sprintf("n%02d", i), graph.PartNone)
	}
	makeSet := func(window int) *core.SignatureSet {
		sources := make([]graph.NodeID, 0, labels)
		sigs := make([]core.Signature, 0, labels)
		for i, v := range ids {
			w := map[graph.NodeID]float64{
				ids[(i+1)%labels]: float64(1 + (window+i)%5),
				ids[(i+3)%labels]: float64(1 + (window*i)%7),
			}
			sources = append(sources, v)
			sigs = append(sigs, core.FromWeights(w, 4))
		}
		set, err := core.NewSignatureSet("tt", window, sources, sigs)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}

	s, err := New(Config{Capacity: 3, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(makeSet(0)); err != nil {
		t.Fatal(err)
	}
	query := makeSet(0).Sigs[0]

	const windows = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: every Add past capacity evicts
		defer wg.Done()
		for w := 1; w <= windows; w++ {
			if err := s.Add(makeSet(w)); err != nil {
				t.Errorf("add window %d: %v", w, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers: search + history + latest, continuously
			defer wg.Done()
			for {
				hits, err := s.Search(core.Jaccard{}, query, SearchOptions{TopK: 5})
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				// Sanity: hits reference retained-or-evicted windows with
				// coherent payloads — a half-committed window would show
				// up as an empty label or an out-of-range index.
				for _, h := range hits {
					if h.Label == "" || h.Window < 0 || h.Window > windows {
						t.Errorf("incoherent hit %+v", h)
						return
					}
				}
				s.History("n00")
				s.LatestSignature("n01")
				if _, newest, ok := s.WindowRange(); ok && newest >= windows {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestColdReadsBesideCompactionAndPruning is the -race regression for
// the cold tier's locking: searches and histories that read blocks from
// segment files run beside a writer whose every Add compacts a window
// into a new file and prunes the oldest one. A reader holds the read
// lock for as long as it reads files, so it must never find one deleted
// under it, and the blocks it carries out of the lock — sharing their
// segment handle's label tables with every other reader — are only ever
// read.
func TestColdReadsBesideCompactionAndPruning(t *testing.T) {
	u := graph.NewUniverse()
	const windows = 60
	sets := make([]*core.SignatureSet, windows)
	for w := range sets {
		sets[w] = tierSet(t, u, w) // interns every label before a reader runs
	}
	s := newTieredStore(t, Config{Capacity: 2, Universe: u, SegmentRetain: 3}, t.TempDir())
	if err := s.Add(sets[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, set := range sets[1:] {
			if err := s.Add(set); err != nil {
				t.Errorf("add window %d: %v", set.Window, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := fmt.Sprintf("host-%d", r%3)
			for {
				hits, err := s.SearchLabel(core.Jaccard{}, label, SearchOptions{TopK: 5, MaxDist: 0.9})
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for _, h := range hits {
					if h.Label == "" || h.Window < 0 || h.Window >= windows {
						t.Errorf("incoherent hit %+v", h)
						return
					}
				}
				entries, _, err := s.HistoryRange(label, 0, windows, 0)
				if err != nil || len(entries) == 0 || len(entries) > 5 {
					t.Errorf("history: %d entries, %v", len(entries), err)
					return
				}
				for _, e := range entries {
					if err := e.Sig.Validate(); err != nil || e.Sig.IsEmpty() {
						t.Errorf("history of %s, window %d: %v %v", label, e.Window, e.Sig, err)
						return
					}
				}
				if _, newest, ok := s.WindowRange(); ok && newest >= windows-1 {
					return
				}
			}
		}()
	}
	wg.Wait()
}
