package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphsig/internal/budget"
	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// tieSets builds windows made to tie: hosts draw two or three peers
// from a pool of eight with weights 1 or 2, so the same signature shows
// up under several labels and in several windows; one host per window
// is silent, and "loner" talks to a peer nobody else does.
func tieSets(t *testing.T, u *graph.Universe, windows, hosts int) []*core.SignatureSet {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	sets := make([]*core.SignatureSet, windows)
	for w := range sets {
		sigs := map[string]map[string]float64{"silent": {}, "loner": {"rare": 1, "peer-0": 1}}
		for h := 0; h < hosts; h++ {
			peers := map[string]float64{}
			for len(peers) < 2+rng.Intn(2) {
				peers[fmt.Sprintf("peer-%d", rng.Intn(8))] = float64(1 + rng.Intn(2))
			}
			sigs[fmt.Sprintf("host-%02d", h)] = peers
		}
		sets[w] = buildSet(t, u, w, sigs)
	}
	return sets
}

var allDistances = []core.Distance{
	core.Jaccard{}, core.Dice{}, core.ScaledDice{}, core.ScaledHellinger{}, core.Cosine{}, core.WeightedJaccard{},
}

// naiveRank is the search answer by definition, the test's reference:
// every non-empty signature of every window in range, hot rows and the
// decoded sets of cold blocks alike, scored with d.Dist; those no
// farther than MaxDist and not of the excluded label kept, sorted by
// ranksBefore and cut to K.
func naiveRank(t *testing.T, u *graph.Universe, ring []entry, d core.Distance, sig core.Signature, opts SearchOptions) []Hit {
	t.Helper()
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	if opts.MaxDist <= 0 {
		opts.MaxDist = 1
	}
	if opts.LastWindows > 0 && opts.LastWindows < len(ring) {
		ring = ring[len(ring)-opts.LastWindows:]
	}
	var hits []Hit
	for _, e := range ring {
		set := e.set
		if e.block != nil {
			var err error
			if set, err = e.block.Set(); err != nil {
				t.Fatal(err)
			}
		}
		for i, row := range set.Sigs {
			label := u.Label(set.Sources[i])
			if row.IsEmpty() || label == opts.ExcludeLabel {
				continue
			}
			if dist := d.Dist(sig, row); dist <= opts.MaxDist {
				hits = append(hits, Hit{Node: set.Sources[i], Label: label, Window: set.Window, Dist: dist})
			}
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		if ranksBefore(&a, &b) {
			return -1
		}
		return 1
	})
	return hits[:min(opts.TopK, len(hits))]
}

// TestSearchRingMatchesFullSortOracle: Search, SearchBatch (one call
// holding every query of the grid) and SearchLabel, all ranking while
// scanning under a tightening bound, answer exactly what naiveRank
// answers — same hits, same order, same float bits — on rings built to
// tie on distance across windows and labels, with cold block entries,
// and with queries that overlap fewer than K signatures (the rest of the
// answer is dist == 1 fill), under every registered distance and one
// that is not.
func TestSearchRingMatchesFullSortOracle(t *testing.T) {
	const windows, hosts = 8, 24
	stores := map[string]func(u *graph.Universe) *Store{
		"hot": func(u *graph.Universe) *Store {
			s, err := New(Config{Capacity: windows, Universe: u})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"cold": func(u *graph.Universe) *Store {
			return newTieredStore(t, Config{Capacity: 3, Universe: u}, t.TempDir())
		},
	}
	for name, build := range stores {
		u := graph.NewUniverse()
		s := build(u)
		for _, set := range tieSets(t, u, windows, hosts) {
			if err := s.Add(set); err != nil {
				t.Fatal(err)
			}
		}
		ring, err := s.snapshotTier(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ring) != windows {
			t.Fatalf("%s: snapshot has %d windows, want %d", name, len(ring), windows)
		}
		if cold := ring[0].block != nil; cold != (name == "cold") {
			t.Fatalf("%s: oldest entry is a cold block = %v", name, cold)
		}
		labels := []string{"host-00", "host-07", "loner"}
		queries := map[string]core.Signature{}
		for _, label := range labels {
			sig, _, ok := s.LatestSignature(label)
			if !ok {
				t.Fatalf("%s: no signature for %s", name, label)
			}
			queries[label] = sig
		}
		// Overlaps only the loners: everything else is at distance 1.
		queries["rare"] = core.FromWeights(map[graph.NodeID]float64{u.MustIntern("rare", graph.PartNone): 1}, 10)
		var grid []SearchOptions
		for _, k := range []int{1, 10, 1 << 20} {
			for _, maxDist := range []float64{0.3, 1} {
				for _, exclude := range []string{"", "host-00", "loner"} {
					for _, last := range []int{0, 2, 5} {
						grid = append(grid, SearchOptions{TopK: k, MaxDist: maxDist, ExcludeLabel: exclude, LastWindows: last})
					}
				}
			}
		}
		for _, d := range append([]core.Distance{quarterJaccard{}}, allDistances...) {
			check := func(how, qname string, opts SearchOptions, got []Hit) {
				t.Helper()
				if want := naiveRank(t, u, ring, d, queries[qname], opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s %s query %s %+v diverged:\ngot:   %v\nnaive: %v", name, d.Name(), how, qname, opts, got, want)
				}
			}
			var batch []BatchQuery
			var slots []string
			for qname, sig := range queries {
				for _, opts := range grid {
					got, err := s.Search(d, sig, opts)
					if err != nil {
						t.Fatal(err)
					}
					check("Search", qname, opts, got)
					batch = append(batch, BatchQuery{Sig: sig, Opts: opts})
					slots = append(slots, qname)
				}
			}
			got, err := s.SearchBatch(d, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range batch {
				check("SearchBatch", slots[i], q.Opts, got[i])
			}
			for _, label := range labels {
				for _, opts := range grid {
					got, err := s.SearchLabel(d, label, opts)
					if err != nil {
						t.Fatal(err)
					}
					if opts.ExcludeLabel == "" {
						opts.ExcludeLabel = label
					}
					check("SearchLabel", label, opts, got)
				}
			}
		}
		releaseCold(ring)
	}
}

// TestSearchRingOracleSeesTies guards the property test's fixture: the
// rings it runs on really hold equal distances across windows and
// labels at the top-k cut, and a query with fewer than K overlaps.
func TestSearchRingOracleSeesTies(t *testing.T) {
	u := graph.NewUniverse()
	s, err := New(Config{Capacity: 8, Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range tieSets(t, u, 8, 24) {
		if err := s.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	sig, _, _ := s.LatestSignature("host-00")
	hits, err := s.Search(core.Jaccard{}, sig, SearchOptions{TopK: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tiedWindows, tiedLabels := false, false
	for i := 1; i < len(hits); i++ {
		if hits[i].Dist == hits[i-1].Dist && hits[i].Dist < 1 {
			tiedWindows = tiedWindows || hits[i].Window != hits[i-1].Window
			tiedLabels = tiedLabels || hits[i].Window == hits[i-1].Window
		}
	}
	if !tiedWindows || !tiedLabels {
		t.Fatalf("fixture has no ties (across windows %v, across labels %v)", tiedWindows, tiedLabels)
	}
	rare := core.FromWeights(map[graph.NodeID]float64{u.MustIntern("rare", graph.PartNone): 1}, 10)
	hits, err = s.Search(core.Jaccard{}, rare, SearchOptions{TopK: 10, LastWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 || hits[1].Dist == 1 || hits[2].Dist != 1 {
		t.Fatalf("rare query: want 2 overlapping hits then dist-1 fill, got %v", hits)
	}
}

// wideStore archives cold+hot windows × hosts synthetic signatures of
// ten peers each, the newest hot of them in RAM and the cold ones before
// them in segment files. A host keeps ten home peers out of its block's
// 16 (eight hosts share a block) and swaps two of them for strangers
// each window, so a label's nearest neighbours are its own past selves,
// then its block.
func wideStore(tb testing.TB, cold, hot, hosts int) *Store {
	s, _ := wideStoreAndMore(tb, Config{}, cold, hot, hosts)
	return s
}

// wideStoreAndMore is wideStore with the source of its windows: each
// call of more archives the next one.
func wideStoreAndMore(tb testing.TB, cfg Config, cold, hot, hosts int) (s *Store, more func()) {
	tb.Helper()
	u := graph.NewUniverse()
	cfg.Universe = u
	cfg.Capacity = hot
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if cold > 0 {
		if _, err := s.AttachSegments(tb.TempDir()); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	peers := make([]graph.NodeID, 4*hosts)
	for i := range peers {
		peers[i] = u.MustIntern(fmt.Sprintf("peer-%05d", i), graph.PartNone)
	}
	sources := make([]graph.NodeID, hosts)
	home := make([][]graph.NodeID, hosts)
	for h := range sources {
		sources[h] = u.MustIntern(fmt.Sprintf("host-%05d", h), graph.PartNone)
		for _, p := range rng.Perm(16)[:10] {
			home[h] = append(home[h], peers[h/8*16+p])
		}
	}
	w := 0
	more = func() {
		sigs := make([]core.Signature, hosts)
		for h := range sigs {
			weights := map[graph.NodeID]float64{}
			for i, p := range home[h] {
				weights[p] = float64(10 - i)
			}
			for swap := 0; swap < 2; swap++ {
				delete(weights, home[h][rng.Intn(10)])
				weights[peers[rng.Intn(len(peers))]] = float64(1 + rng.Intn(9))
			}
			sigs[h] = core.FromWeights(weights, 10)
		}
		set, err := core.NewSignatureSet("tt", w, sources, sigs)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Add(set); err != nil {
			tb.Fatal(err)
		}
		w++
	}
	for w < cold+hot {
		more()
	}
	return s, more
}

// TestSearchAllocsIndependentOfArchive: a hot search allocates for the
// hits it returns, not for the signatures it scans — the same count and
// bytes on 8×100 and 8×1200 sources — and a request for 2^40 hits
// allocates for the hits that exist, not for K. So does each way in: a
// label, an inline signature, and a batch of 32 label-resolved
// signatures, whose count bounds are per query.
func TestSearchAllocsIndependentOfArchive(t *testing.T) {
	budget.SkipUnderRace(t)
	const batch = 32
	// Each way reads its query signatures before the count starts.
	ways := []struct {
		name    string
		queries float64
		search  func(s *Store) func(opts SearchOptions) error
	}{
		{"label", 1, func(s *Store) func(SearchOptions) error {
			return func(opts SearchOptions) error {
				_, err := s.SearchLabel(core.Jaccard{}, "host-00042", opts)
				return err
			}
		}},
		{"inline", 1, func(s *Store) func(SearchOptions) error {
			sig, _, _ := s.LatestSignature("host-00042")
			return func(opts SearchOptions) error {
				_, err := s.Search(core.Jaccard{}, sig, opts)
				return err
			}
		}},
		{"batch32", batch, func(s *Store) func(SearchOptions) error {
			qs := make([]BatchQuery, batch)
			for i := range qs {
				qs[i].Sig, _, _ = s.LatestSignature(fmt.Sprintf("host-%05d", i*3))
			}
			return func(opts SearchOptions) error {
				for i := range qs {
					qs[i].Opts = opts
				}
				_, err := s.SearchBatch(core.Jaccard{}, qs)
				return err
			}
		}},
	}
	for _, way := range ways {
		allocs := func(hosts, k int) (allocs, bytes float64) {
			s := wideStore(t, 0, 8, hosts)
			run, opts := way.search(s), SearchOptions{TopK: k}
			return budget.PerRun(20, func() {
				if err := run(opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, smallBytes := allocs(100, 10)
		large, largeBytes := allocs(1200, 10)
		if small != large || smallBytes != largeBytes {
			t.Fatalf("%s: k=10 search allocations grow with the archive: %v times, %v bytes at 8x100; %v times, %v bytes at 8x1200",
				way.name, small, smallBytes, large, largeBytes)
		}
		if large > 12*way.queries {
			t.Fatalf("%s: k=10 search allocates %v times", way.name, large)
		}
		// 800 hits: append doubling is ~12 allocations, a make(1<<40) is a
		// crash.
		huge, _ := allocs(100, 1<<40)
		if huge > 30*way.queries {
			t.Fatalf("%s: K=1<<40 search allocates %v times for 800 hits a query", way.name, huge)
		}
		t.Logf("%s: %v allocations at k=10, %v at K=1<<40", way.name, large, huge)
	}
}

// BenchmarkStoreSearch is a search at the benchmark's shapes (k=10)
// without bench/ around it. Hot, 8 windows × 1200 sources: the exact
// path under a set distance and a scaled one; 10k repeats Jaccard at
// 8 × 10 000 sources, the window size where an approximate candidate
// source could pay for its hashing — whether it matters is ROADMAP
// A-1's to settle (EXPERIMENTS.md "Store search"). Cold, the same 8 hot
// windows with `wide`'s 4 × 1200 or `deep`'s 12 × 400 cold ones behind
// them: a label search, whose bound the hot windows have drawn below 1
// by the time it reads a block, and (maxdist1) the same depth under
// MaxDist 1 with a K above the archive's size, so the collector never
// fills, its bound stays at 1 and every cold row has to be compared and
// kept. batch32 is one SearchBatch of 32 label-resolved signatures over
// the hot windows, as a routed batch reaches a shard. Every search is
// exact, so each case returns min(K, archive) hits a query (hits/op
// counts the batch's 32).
func BenchmarkStoreSearch(b *testing.B) {
	const batch = 32
	cases := []struct {
		name  string
		d     core.Distance
		cold  int
		hosts int
		how   string // "label", "inline" (maxdist1) or "batch"
	}{
		{"jaccard/exact", core.Jaccard{}, 0, 1200, "label"},
		{"shel/exact", core.ScaledHellinger{}, 0, 1200, "label"},
		{"10k/jaccard/exact", core.Jaccard{}, 0, 10000, "label"},
		{"cold4x1200/jaccard", core.Jaccard{}, 4, 1200, "label"},
		{"cold12x400/jaccard", core.Jaccard{}, 12, 400, "label"},
		{"cold4x1200/jaccard/maxdist1", core.Jaccard{}, 4, 1200, "inline"},
		{"batch32", core.Jaccard{}, 0, 1200, "batch"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := wideStore(b, c.cold, 8, c.hosts)
			opts, want := SearchOptions{TopK: 10}, 10
			if c.how == "inline" {
				want = (c.cold + 8) * c.hosts
				opts.TopK = want + 1
			}
			perOp := 1
			if c.how == "batch" {
				perOp = batch
			}
			qs := make([]BatchQuery, batch)
			found := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				label := fmt.Sprintf("host-%05d", i*37%c.hosts)
				var hits []Hit
				var err error
				switch c.how {
				case "label":
					hits, err = s.SearchLabel(c.d, label, opts)
				case "inline":
					sig, _, _ := s.LatestSignature(label)
					hits, err = s.Search(c.d, sig, opts)
				case "batch":
					for j := range qs {
						qs[j] = BatchQuery{Opts: opts}
						qs[j].Sig, _, _ = s.LatestSignature(fmt.Sprintf("host-%05d", (i*batch+j)*37%c.hosts))
					}
					var out [][]Hit
					out, err = s.SearchBatch(c.d, qs)
					for _, hits := range out {
						found += len(hits)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				found += len(hits)
			}
			if found != want*perOp*b.N {
				b.Fatalf("%d hits in %d searches of %d queries, want %d a query", found, b.N, perOp, want)
			}
			b.ReportMetric(float64(found)/float64(b.N), "hits/op")
		})
	}
}
