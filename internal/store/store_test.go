package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// buildSet makes a window's SignatureSet over u from label → member
// weights, interning labels on first sight.
func buildSet(t testing.TB, u *graph.Universe, window int, sigs map[string]map[string]float64) *core.SignatureSet {
	t.Helper()
	var sources []graph.NodeID
	var out []core.Signature
	// Deterministic order: intern sources AND their members sorted by
	// label, so two universes fed the same stream assign identical
	// NodeIDs (cross-universe Sig.Equal comparisons depend on it).
	sortKeys := func(m map[string]float64) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	labels := make([]string, 0, len(sigs))
	for l := range sigs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		v := u.MustIntern(l, graph.PartNone)
		w := map[graph.NodeID]float64{}
		for _, m := range sortKeys(sigs[l]) {
			w[u.MustIntern(m, graph.PartNone)] = sigs[l][m]
		}
		sources = append(sources, v)
		out = append(out, core.FromWeights(w, 10))
	}
	set, err := core.NewSignatureSet("tt", window, sources, out)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestStoreAddEvictionAndRange(t *testing.T) {
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 2, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.WindowRange(); ok {
		t.Fatal("empty store reports a window range")
	}
	for w := 0; w < 4; w++ {
		set := buildSet(t, u, w, map[string]map[string]float64{
			"a": {"x": 1},
		})
		if err := s.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 || s.TotalAdded() != 4 {
		t.Fatalf("len=%d total=%d", s.Len(), s.TotalAdded())
	}
	lo, hi, ok := s.WindowRange()
	if !ok || lo != 2 || hi != 3 {
		t.Fatalf("range = [%d,%d] ok=%v", lo, hi, ok)
	}
	if got, err := s.Latest(); err != nil || got.Window != 3 {
		t.Fatalf("latest = %+v, %v", got, err)
	}
	// Regressing or duplicate windows are rejected.
	if err := s.Add(buildSet(t, u, 3, map[string]map[string]float64{"a": {"x": 1}})); err == nil {
		t.Fatal("duplicate window accepted")
	}
	if err := s.Add(buildSet(t, u, 1, map[string]map[string]float64{"a": {"x": 1}})); err == nil {
		t.Fatal("regressing window accepted")
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	s, err := New(Config{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(nil); err == nil {
		t.Fatal("nil set accepted")
	}
}

func TestStoreHistoryAndLatestSignature(t *testing.T) {
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 4, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(buildSet(t, u, 0, map[string]map[string]float64{
		"a": {"x": 1, "y": 2},
		"b": {"z": 1},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(buildSet(t, u, 1, map[string]map[string]float64{
		"a": {"x": 3},
	})); err != nil {
		t.Fatal(err)
	}
	h := s.History("a")
	if len(h) != 2 || h[0].Window != 0 || h[1].Window != 1 {
		t.Fatalf("history = %+v", h)
	}
	if h[0].Scheme != "tt" {
		t.Fatalf("scheme = %q", h[0].Scheme)
	}
	if got := s.History("b"); len(got) != 1 {
		t.Fatalf("history b = %+v", got)
	}
	if got := s.History("nope"); got != nil {
		t.Fatalf("history of unknown label = %+v", got)
	}
	sig, w, ok := s.LatestSignature("a")
	if !ok || w != 1 || sig.Len() != 1 {
		t.Fatalf("latest a = %v window %d ok %v", sig, w, ok)
	}
	// b is only in window 0; the latest signature reaches back.
	if _, w, ok := s.LatestSignature("b"); !ok || w != 0 {
		t.Fatalf("latest b window %d ok %v", w, ok)
	}
}

func searchFixture(t *testing.T, cfg Config) (*Store, *graph.Universe) {
	t.Helper()
	u := cfg.Universe
	if u == nil {
		u = graph.NewUniverse()
		cfg.Universe = u
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(buildSet(t, u, 0, map[string]map[string]float64{
		"twin-old": {"x": 1, "y": 1},
		"other":    {"p": 1, "q": 1},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(buildSet(t, u, 1, map[string]map[string]float64{
		"query":   {"x": 1, "y": 1},
		"twin":    {"x": 1, "y": 1},
		"partial": {"x": 1, "z": 1},
		"far":     {"r": 1, "s": 1},
		"silent":  {},
	})); err != nil {
		t.Fatal(err)
	}
	return s, u
}

func TestStoreSearchExact(t *testing.T) {
	s, _ := searchFixture(t, Config{Capacity: 4})
	hits, err := s.SearchLabel(core.Jaccard{}, "query", SearchOptions{TopK: 3, MaxDist: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	// Exact twins first; the newer window ranks above the older at the
	// same distance; the partial overlap follows.
	if hits[0].Label != "twin" || hits[0].Dist != 0 || hits[0].Window != 1 {
		t.Fatalf("hit 0 = %+v", hits[0])
	}
	if hits[1].Label != "twin-old" || hits[1].Window != 0 {
		t.Fatalf("hit 1 = %+v", hits[1])
	}
	if hits[2].Label != "partial" {
		t.Fatalf("hit 2 = %+v", hits[2])
	}
	// MaxDist prunes; the query's own signature is excluded.
	for _, h := range hits {
		if h.Label == "query" {
			t.Fatal("query matched itself")
		}
		if h.Label == "far" || h.Label == "silent" {
			t.Fatalf("distant/empty label hit: %+v", h)
		}
	}
	// LastWindows restricts the scan.
	recent, err := s.SearchLabel(core.Jaccard{}, "query", SearchOptions{TopK: 10, LastWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range recent {
		if h.Window != 1 {
			t.Fatalf("stale window in LastWindows=1 search: %+v", h)
		}
	}
	if _, err := s.SearchLabel(core.Jaccard{}, "unknown", SearchOptions{}); err == nil {
		t.Fatal("search for unknown label succeeded")
	}
	if _, err := s.Search(core.Jaccard{}, core.Signature{}, SearchOptions{}); err == nil {
		t.Fatal("empty-signature search succeeded")
	}
}

// TestStoreSearchBatchMatchesSingles: every slot of a SearchBatch
// answer must equal the corresponding single Search call — same hits,
// same order, same distances — across distances and option shapes,
// since the batch path shares one ring snapshot and one kernel scratch
// across slots.
func TestStoreSearchBatchMatchesSingles(t *testing.T) {
	s, u := searchFixture(t, Config{Capacity: 4})
	sigOf := func(members map[string]float64) core.Signature {
		w := map[graph.NodeID]float64{}
		for m, weight := range members {
			w[u.MustIntern(m, graph.PartNone)] = weight
		}
		return core.FromWeights(w, 10)
	}
	queries := []BatchQuery{
		{Sig: sigOf(map[string]float64{"x": 1, "y": 1}), Opts: SearchOptions{TopK: 3, MaxDist: 0.9}},
		{Sig: sigOf(map[string]float64{"p": 1, "q": 1}), Opts: SearchOptions{TopK: 2}},
		{Sig: sigOf(map[string]float64{"x": 1, "z": 1}), Opts: SearchOptions{MaxDist: 0.6, LastWindows: 1}},
		{Sig: sigOf(map[string]float64{"r": 2, "s": 1}), Opts: SearchOptions{TopK: 1, ExcludeLabel: "far"}},
	}
	for _, d := range []core.Distance{core.Jaccard{}, core.Cosine{}, core.WeightedJaccard{}} {
		got, err := s.SearchBatch(d, queries)
		if err != nil {
			t.Fatalf("%s: batch: %v", d.Name(), err)
		}
		if len(got) != len(queries) {
			t.Fatalf("%s: %d results for %d queries", d.Name(), len(got), len(queries))
		}
		for i, q := range queries {
			want, err := s.Search(d, q.Sig, q.Opts)
			if err != nil {
				t.Fatalf("%s: single %d: %v", d.Name(), i, err)
			}
			if fmt.Sprintf("%v", got[i]) != fmt.Sprintf("%v", want) {
				t.Fatalf("%s query %d diverged:\nbatch:  %v\nsingle: %v", d.Name(), i, got[i], want)
			}
		}
	}
	// Guards: no distance, empty signatures.
	if _, err := s.SearchBatch(nil, queries); err == nil {
		t.Fatal("nil distance accepted")
	}
	if _, err := s.SearchBatch(core.Jaccard{}, []BatchQuery{{Sig: core.Signature{}}}); err == nil {
		t.Fatal("empty signature accepted")
	}
	// An empty batch is a no-op, not an error.
	if out, err := s.SearchBatch(core.Jaccard{}, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 4, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	// Hostile labels must survive the snapshot (Go-quoted codec).
	if err := s.Add(buildSet(t, u, 2, map[string]map[string]float64{
		"sp ace \"quote\"": {"mem\nber": 0.25, "plain": 0.75},
		"plain-src":        {"plain": 1},
	})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(buildSet(t, u, 5, map[string]map[string]float64{
		"plain-src": {"\xff\xfebytes": 1},
	})); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if SnapshotExists(dir) {
		t.Fatal("snapshot exists before save")
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !SnapshotExists(dir) {
		t.Fatal("snapshot missing after save")
	}
	loaded, err := Load(dir, Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, loaded)

	// Loading into a smaller store keeps EVERY window — the snapshot may
	// be the only durable copy (a tiered server checkpoints an oversized
	// ring after a failed compaction), so trimming waits for the first
	// live Add, when any attached cold tier can take the surplus.
	small, err := Load(dir, Config{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, _ := small.WindowRange(); lo != 2 || hi != 5 {
		t.Fatalf("small load range = [%d,%d], want [2,5]", lo, hi)
	}
	if err := small.Add(buildSet(t, u, 6, map[string]map[string]float64{
		"plain-src": {"plain": 1},
	})); err != nil {
		t.Fatal(err)
	}
	if lo, hi, _ := small.WindowRange(); lo != 6 || hi != 6 || small.Len() != 1 {
		t.Fatalf("post-Add range = [%d,%d] len %d, want [6,6] len 1", lo, hi, small.Len())
	}
	if _, err := Load(filepath.Join(dir, "missing"), Config{Capacity: 1}); err == nil {
		t.Fatal("loading a missing snapshot succeeded")
	}
}

// assertStoresEqual compares two stores window-by-window through
// labels, so differing NodeID assignments don't matter.
func assertStoresEqual(t *testing.T, a, b *Store) {
	t.Helper()
	wa, wb := a.Windows(), b.Windows()
	if len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		sa, sb := wa[i], wb[i]
		if sa.Window != sb.Window || sa.Scheme != sb.Scheme || sa.Len() != sb.Len() {
			t.Fatalf("window %d header mismatch: %d/%s/%d vs %d/%s/%d",
				i, sa.Window, sa.Scheme, sa.Len(), sb.Window, sb.Scheme, sb.Len())
		}
		for j, v := range sa.Sources {
			label := a.Universe().Label(v)
			hb := b.History(label)
			var match *HistoryEntry
			for k := range hb {
				if hb[k].Window == sa.Window {
					match = &hb[k]
				}
			}
			if match == nil {
				t.Fatalf("window %d: %q missing from loaded store", sa.Window, label)
			}
			siga := sa.Sigs[j]
			if siga.Len() != match.Sig.Len() {
				t.Fatalf("window %d %q: signature lengths differ", sa.Window, label)
			}
			for m := range siga.Nodes {
				la := a.Universe().Label(siga.Nodes[m])
				lb := b.Universe().Label(match.Sig.Nodes[m])
				if la != lb || siga.Weights[m] != match.Sig.Weights[m] {
					t.Fatalf("window %d %q entry %d: (%q,%g) vs (%q,%g)",
						sa.Window, label, m, la, siga.Weights[m], lb, match.Sig.Weights[m])
				}
			}
		}
	}
}

// TestStoreConcurrentIngestAndQuery drives Add, Search, History and
// Save from many goroutines under -race. New labels are interned up
// front: concurrent interning is the *server's* job to serialize (see
// package doc); the store itself must be safe given a quiescent
// universe.
func TestStoreConcurrentIngestAndQuery(t *testing.T) {
	u := graph.NewUniverse()
	const windows, hosts = 40, 12
	sets := make([]*core.SignatureSet, windows)
	for w := 0; w < windows; w++ {
		sigs := map[string]map[string]float64{}
		for h := 0; h < hosts; h++ {
			sigs[fmt.Sprintf("host-%d", h)] = map[string]float64{
				fmt.Sprintf("dst-%d", h):           1,
				fmt.Sprintf("dst-%d", (h+w)%hosts): 0.5,
			}
		}
		sets[w] = buildSet(t, u, w, sigs)
	}
	s, err := New(Config{Capacity: 8, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(sets[0]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: one goroutine, windows stay ordered
		defer wg.Done()
		for w := 1; w < windows; w++ {
			if err := s.Add(sets[w]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // searcher
		defer wg.Done()
		for i := 0; i < 200; i++ {
			label := fmt.Sprintf("host-%d", i%hosts)
			if _, err := s.SearchLabel(core.Jaccard{}, label, SearchOptions{TopK: 5}); err != nil {
				t.Error(err)
				return
			}
			s.History(label)
			s.Len()
		}
	}()
	go func() { // snapshotter
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Save(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if lo, hi, ok := s.WindowRange(); !ok || hi != windows-1 || hi-lo != 7 {
		t.Fatalf("final range [%d,%d] ok=%v", lo, hi, ok)
	}
	if _, err := Load(dir, Config{Capacity: 8}); err != nil {
		t.Fatalf("final snapshot unloadable: %v", err)
	}
}
