// Package store implements the serving-side signature archive: a
// goroutine-safe, bounded ring of the most recent signature windows,
// keyed by node label through a shared graph.Universe. It is the state
// behind sigserverd — per-label history lookup ("what did this host
// look like over the last N windows?"), top-k nearest-signature search
// (the watchlist/reappearance primitive, an exact scan of every window
// it reaches), and snapshot save/load so an online service can restart
// without losing its archive.
//
// Concurrency contract: all Store methods are safe for concurrent use
// with each other. The shared Universe, however, is not safe for
// concurrent mutation — a caller that interns new labels while serving
// (the streaming pipeline does, on ingest) must serialize interning
// against Store reads. internal/server does exactly that with one
// RWMutex around pipeline ingestion.
package store

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/segment"
)

// Config parameterizes a Store.
type Config struct {
	// Capacity bounds the number of retained windows; older windows are
	// evicted oldest-first.
	Capacity int
	// Universe resolves NodeIDs to labels; nil allocates a fresh one.
	Universe *graph.Universe
	// Registry, when non-nil, receives the store's metrics (snapshot
	// save latency and bytes, search probe counts, pairwise-engine row
	// timings). Nil disables instrumentation at zero cost beyond one
	// branch per event.
	Registry *obs.Registry
	// SegmentRetain bounds the number of cold-tier segment files kept
	// on disk once AttachSegments enabled tiering; the oldest files
	// beyond the bound are deleted after each compaction. Zero keeps
	// everything.
	SegmentRetain int
}

func (c *Config) validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("store: capacity must be positive, got %d", c.Capacity)
	}
	return nil
}

// entry is one window as a search scans it. A hot window is its
// signature set and its pairwise-engine view (SoA signatures + inverted
// node index), built once at Add time.
// A cold window read back by snapshotTier is its verified block alone
// (everything else nil): nothing of it is decoded until searchRing picks
// the rows to compare, and those are the one thing still compared with
// plain d.Dist calls.
type entry struct {
	set   *core.SignatureSet
	view  *distmat.SetView
	block *segment.Block
}

// Store is the bounded, goroutine-safe archive of recent signature
// windows.
type Store struct {
	cfg      Config
	universe *graph.Universe

	mu      sync.RWMutex
	ring    []entry // oldest first
	added   int     // windows ever added (monotone, survives eviction)
	evicted int

	// tier, when non-nil, is the cold tier of immutable segment files
	// that receives every evicted window (see tier.go). Guarded by mu.
	tier *segTier

	// loading suspends capacity eviction while Load replays a snapshot
	// manifest. A pre-crash server may legitimately checkpoint an
	// over-capacity ring (compaction failed, eviction deferred); evicting
	// here — before AttachSegments has wired the cold tier — would drop
	// the only copy of an acked window. The surplus compacts on the next
	// live Add instead.
	loading bool

	// saveMu serializes Save calls (Server.Snapshot vs window close vs
	// shutdown) and AddSaving's window file, and guards what
	// Save may skip: saved maps each window this store wrote into (or
	// loaded from) savedDir to the CRC in its file's name, and
	// savedLabels lists the label files it wrote or loaded there, in
	// NodeID order. A file is reused only through this record, never
	// because a same-named file happens to lie in the directory.
	saveMu      sync.Mutex
	savedDir    string
	saved       map[int]uint32
	savedLabels []labelFile

	obs storeObs
}

// storeObs bundles the store's optional metric handles; the zero value
// (no registry) is fully no-op.
type storeObs struct {
	saveSeconds  *obs.Histogram // successful Save wall time
	saveBytes    *obs.Counter   // bytes successful Saves wrote (new window files + manifest), and AddSaving's files
	searchProbes *obs.Histogram // exact distance evaluations per Search

	// Cold-tier counters (store_segment_*), live once AttachSegments
	// enabled tiering.
	segLoads       *obs.Counter // window blocks read back from segments
	segQuarantines *obs.Counter // corrupt segment files renamed aside
	segPruned      *obs.Counter // segment files deleted by retention
	segErrors      *obs.Counter // failed compactions/prunes (eviction deferred)

	engine distmat.Metrics
}

// bind registers the store metric families on reg (idempotent: names
// resolve to the same handles on re-registration).
func (o *storeObs) bind(reg *obs.Registry) {
	if reg == nil {
		return
	}
	o.saveSeconds = reg.Histogram("store_snapshot_save_seconds",
		"wall time of successful snapshot saves")
	o.saveBytes = reg.Counter("store_snapshot_save_bytes_total",
		"bytes written by successful snapshot saves and the window files AddSaving wrote ahead of them")
	o.searchProbes = reg.HistogramWith("store_search_probes",
		"exact distance evaluations per search request", obs.CountBounds(24))
	o.segLoads = reg.Counter("store_segment_loads",
		"window blocks read back from cold-tier segments")
	o.segQuarantines = reg.Counter("store_segment_quarantines",
		"corrupt segment files renamed aside at attach")
	o.segPruned = reg.Counter("store_segment_pruned",
		"segment files deleted by the retention policy")
	o.segErrors = reg.Counter("store_segment_errors",
		"failed segment compactions, prunes (eviction deferred) or cold reads")
	o.engine = distmat.Metrics{
		RowSeconds: reg.Histogram("distmat_row_seconds",
			"pairwise-engine row computation time (one query vs one window)"),
		Candidates: reg.HistogramWith("distmat_candidates",
			"inverted-index candidates per engine row", obs.CountBounds(24)),
	}
}

// New builds an empty store.
func New(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Universe == nil {
		cfg.Universe = graph.NewUniverse()
	}
	s := &Store{cfg: cfg, universe: cfg.Universe}
	s.obs.bind(cfg.Registry)
	return s, nil
}

// Universe returns the shared label universe.
func (s *Store) Universe() *graph.Universe { return s.universe }

// Add appends a completed window. Window indices must be strictly
// increasing — the store archives a time line, not a bag — so a
// duplicate or regressing index is an error. The oldest window is
// evicted when capacity is exceeded.
func (s *Store) Add(set *core.SignatureSet) error { return s.add(set, "") }

// AddSaving is Add that, once it has accepted set, also writes set's
// snapshot file into dir beside the compaction of the windows set
// evicts, so that the next Save into dir finds the file written and
// owned. Only a window Add accepts is written: a window it refuses — a
// replay closing an archived window again — must not replace that
// window's file. Only the directory of the store's last Save or Load is
// written into; the first Save into a directory writes every file
// itself. A failed write does not fail the Add: the next Save writes
// the file and reports the error.
func (s *Store) AddSaving(set *core.SignatureSet, dir string) error { return s.add(set, dir) }

func (s *Store) add(set *core.SignatureSet, dir string) error {
	if set == nil {
		return fmt.Errorf("store: nil signature set")
	}
	if err := fault.Inject("store.add"); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if dir != "" {
		s.saveMu.Lock() // Save's order: saveMu, then mu
		defer s.saveMu.Unlock()
		if dir != s.savedDir {
			dir = ""
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.ring); n > 0 && set.Window <= s.ring[n-1].set.Window {
		return fmt.Errorf("store: window %d not after latest window %d", set.Window, s.ring[n-1].set.Window)
	}
	// The windows set evicts are known before it is appended, so their
	// compaction, set's view and set's snapshot file are built beside
	// each other. Each only reads the universe and the sets.
	over := 0
	if len(s.ring)+1 > s.cfg.Capacity && !s.loading {
		over = len(s.ring) + 1 - s.cfg.Capacity
	}
	var view *distmat.SetView
	legs := []func(){func() { view = distmat.NewSetView(set) }}
	if over > 0 && s.tier != nil {
		// Compaction precedes eviction: only windows with a durable
		// segment copy may leave RAM. A failed segment write shrinks
		// `over` and the ring temporarily exceeds Capacity — degraded
		// memory bounds beat lost history.
		legs = append(legs, func() { over = s.compactLocked(over) })
	}
	if dir != "" {
		legs = append(legs, func() {
			if _, n, err := s.saveWindowLocked(dir, set); err == nil {
				s.obs.saveBytes.Add(int64(n))
			}
		})
	}
	beside(legs...)
	s.ring = append(s.ring, entry{set: set, view: view})
	s.added++
	if over > 0 {
		s.ring = append(s.ring[:0:0], s.ring[over:]...)
		s.evicted += over
	}
	return nil
}

// beside runs fns and returns once all have: in sequence when there is
// one P to run them, else the first on the calling goroutine and each
// other on one of its own.
func beside(fns ...func()) {
	if runtime.GOMAXPROCS(0) == 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	var wg sync.WaitGroup
	for _, f := range fns[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	fns[0]()
	wg.Wait()
}

// Len reports the number of retained windows.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ring)
}

// TotalAdded reports how many windows were ever added (including
// evicted ones).
func (s *Store) TotalAdded() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.added
}

// WindowRange reports the oldest and newest retained window indices
// across both tiers — cold segments extend the range past the hot
// ring; ok is false when the archive is empty.
func (s *Store) WindowRange() (oldest, newest int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs, bound := s.tierSegsLocked()
	for _, seg := range segs {
		if seg.First() < bound {
			oldest, ok = seg.First(), true
			break
		}
	}
	if len(s.ring) > 0 {
		if !ok {
			oldest = s.ring[0].set.Window
		}
		return oldest, s.ring[len(s.ring)-1].set.Window, true
	}
	if ok {
		newest = segs[len(segs)-1].Last()
	}
	return oldest, newest, ok
}

// Windows returns the hot in-memory signature sets, oldest first (cold
// segment windows are reached through Window, HistoryRange and
// Search). The slice is a copy; the sets themselves are shared and
// must be treated as immutable (every producer in this module already
// does).
func (s *Store) Windows() []*core.SignatureSet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*core.SignatureSet, len(s.ring))
	for i, e := range s.ring {
		out[i] = e.set
	}
	return out
}

// Latest returns the newest retained window, or nil when empty. With
// an empty ring but a populated cold tier (a boot whose snapshot was
// quarantined while segments survived), the newest segment window is
// served instead.
func (s *Store) Latest() (*core.SignatureSet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.ring) > 0 {
		return s.ring[len(s.ring)-1].set, nil
	}
	segs, _ := s.tierSegsLocked()
	if len(segs) == 0 {
		return nil, nil
	}
	seg := segs[len(segs)-1]
	return s.readColdLocked(seg, seg.Last())
}

// HistoryEntry is one archived signature of a label.
type HistoryEntry struct {
	Window int
	Scheme string
	Sig    core.Signature
}

// History returns every retained signature of label across both tiers,
// oldest window first. A label absent from the universe — or present
// but never a source — yields an empty history, as does a cold-tier
// I/O failure (callers needing to distinguish use HistoryRange).
func (s *Store) History(label string) []HistoryEntry {
	out, _, err := s.HistoryRange(label, math.MinInt, math.MaxInt, 0)
	if err != nil {
		return nil
	}
	return out
}

// LatestSignature is ReadLatestSignature for callers to whom a failed
// cold read (counted in store_segment_errors) is no signature.
func (s *Store) LatestSignature(label string) (core.Signature, int, bool) {
	e, ok, _ := s.ReadLatestSignature(label)
	return e.Sig, e.Window, ok
}

// ReadLatestSignature returns the most recent non-empty signature of
// label with its window and scheme, falling through to the cold tier
// when the hot ring has none. ok is false when the archive holds none;
// err is an ErrColdRead when a cold block that had to be searched for
// one could not be read.
func (s *Store) ReadLatestSignature(label string) (HistoryEntry, bool, error) {
	v, ok := s.universe.Lookup(label)
	if !ok {
		return HistoryEntry{}, false, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := len(s.ring) - 1; i >= 0; i-- {
		set := s.ring[i].set
		if sig, ok := set.Get(v); ok && !sig.IsEmpty() {
			return HistoryEntry{Window: set.Window, Scheme: set.Scheme, Sig: sig}, true, nil
		}
	}
	segs, bound := s.tierSegsLocked()
	for i := len(segs) - 1; i >= 0; i-- {
		wins := segs[i].LabelWindows(label)
		for j := len(wins) - 1; j >= 0; j-- {
			if wins[j] >= bound {
				continue
			}
			e, ok, err := s.readRowLocked(segs[i], wins[j], v)
			if err != nil {
				return HistoryEntry{}, false, err
			}
			if ok && !e.Sig.IsEmpty() {
				return e, true, nil
			}
		}
	}
	return HistoryEntry{}, false, nil
}

// releaseCold gives back the blocks snapshotTier read into ring, once
// the search that asked for them has ranked its last row.
func releaseCold(ring []entry) {
	for _, e := range ring {
		if e.block != nil {
			e.block.Release()
		}
	}
}

// Hit is one nearest-signature search result.
type Hit struct {
	Node   graph.NodeID
	Label  string
	Window int
	Dist   float64
}

// DefaultTopK is the result bound applied when SearchOptions.TopK is
// unset. Exported so remote callers (the cluster router) can normalize
// a zero k the same way before merging per-shard results.
const DefaultTopK = 10

// SearchOptions tunes a nearest-signature search.
type SearchOptions struct {
	// TopK bounds the result count (default DefaultTopK).
	TopK int
	// MaxDist drops hits farther than this (default 1 = keep all).
	MaxDist float64
	// ExcludeLabel omits matches of this label (typically the query's
	// own, when asking "who else looks like v?").
	ExcludeLabel string
	// LastWindows restricts the scan to the most recent n archived
	// windows (0 = all). Depths past the hot ring fall through to the
	// cold segment tier.
	LastWindows int
	// Stats, when non-nil, accumulates per-query explain counters for
	// the ?debug=1 response path. One struct may be shared by several
	// queries of a batch — values add up.
	Stats *SearchStats
}

// SearchStats are the per-query explain counters behind ?debug=1.
// Probes — like the store_search_probes histogram — counts the
// distances a search computed, not the hits it ranked: per window the
// engine's inverted-index candidates (every signature, for a distance
// without a kernel) or every non-empty signature of a cold window's
// plain scan.
type SearchStats struct {
	Probes int
}

// BatchQuery is one query of a SearchBatch call: a signature plus its
// own search options.
type BatchQuery struct {
	Sig  core.Signature
	Opts SearchOptions
}

// SearchBatch ranks archived signatures by distance from each query's
// signature and returns, per query, the closest hits, one per (label,
// window) pair, ordered by distance, then newer window, then label. Per
// window the candidates come from the pairwise engine (with MaxDist
// below 1 only signatures sharing at least one node with the query are
// probed: disjoint pairs sit at distance exactly 1) or, for a cold
// window, from its verified block: the rows sharing a node with the
// query when the bound is below 1, every row otherwise, each decoded
// only to be compared. A distance that is not one of the registered
// kinds goes through the engine too, which then evaluates d against
// every signature of the window, as the cold scan does. No candidate
// source skips a signature that could rank, so every search is exact.
// Hits are ranked while scanning (see searchRing): a query keeps at most
// TopK of them, however large the archive.
//
// The window ring is snapshotted once, deep enough for every query, and
// every query reuses the same pooled querier scratch (and the windows'
// shared SoA views), so a batch of n queries costs one snapshot plus n
// scans. The store's read lock is held while the ring is snapshotted
// and, when a query reaches behind it, while each cold block is read
// from its segment file, checksummed and verified (snapshotTier): the
// retention policy deletes segment files under the write lock, and a
// read must not race a delete. So a cold search delays a window close
// by its reads — a fraction of a millisecond per cold window — and a
// hot search by a slice copy. All decoding and distance work runs after
// the lock is released, on blocks and sets nothing mutates. A batch of
// no queries reads nothing. Empty signatures are rejected.
func (s *Store) SearchBatch(d core.Distance, queries []BatchQuery) ([][]Hit, error) {
	if d == nil {
		return nil, fmt.Errorf("store: search needs a distance")
	}
	for i := range queries {
		if queries[i].Sig.IsEmpty() {
			return nil, fmt.Errorf("store: batch query %d has an empty signature", i)
		}
	}
	if len(queries) == 0 {
		return nil, nil // depth 0 below would read the whole cold tier
	}
	// One tier snapshot deep enough for every query: any unbounded
	// query pulls the whole archive, else the deepest bound wins.
	depth := 0
	for i := range queries {
		if lw := queries[i].Opts.LastWindows; lw > 0 {
			depth = max(depth, lw)
		} else {
			depth = 0
			break
		}
	}
	ring, err := s.snapshotTier(depth)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer releaseCold(ring)
	querier, _ := distmat.NewQuerier(d)
	querier.SetMetrics(s.obs.engine)
	defer querier.Release()
	out := make([][]Hit, len(queries))
	for i := range queries {
		out[i] = s.searchRing(ring, querier, d, queries[i].Sig, queries[i].Opts)
	}
	return out, nil
}

// Search is the one-query SearchBatch.
func (s *Store) Search(d core.Distance, sig core.Signature, opts SearchOptions) ([]Hit, error) {
	hits, err := s.SearchBatch(d, []BatchQuery{{Sig: sig, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return hits[0], nil
}

// topK is searchRing's collector: a max-heap of the best k hits seen so
// far, worst at the root. It grows by append and is never sized from k,
// which is the request's to choose.
type topK struct {
	k        int
	universe *graph.Universe // resolves the labels of kept hits
	hits     []Hit
}

// ranksBefore is the search order: nearer first, then newer evidence,
// then label. Labels, not NodeIDs: interning order is a per-process
// accident, so a label tie-break keeps rankings — and the top-k cut —
// stable across processes. Cluster mode relies on this to merge
// per-shard top-k lists bit-identically to a single-node run.
func ranksBefore(a, b *Hit) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.Window != b.Window {
		return a.Window > b.Window
	}
	return a.Label < b.Label
}

// bound is the largest distance that can still enter the collector:
// maxDist until k hits are held, then the worst kept distance. Both are
// inclusive: a hit at exactly MaxDist counts. A tie with the worst kept
// hit lies in an older window (searchRing scans newest first and sets
// the bound once a window), so offer turns it away.
func (t *topK) bound(maxDist float64) float64 {
	if len(t.hits) == t.k && t.hits[0].Dist < maxDist {
		return t.hits[0].Dist
	}
	return maxDist
}

// offer ranks one verified candidate, resolving its label only when
// distance and window alone do not already rule it out.
func (t *topK) offer(v graph.NodeID, window int, dist float64) {
	full := len(t.hits) == t.k
	if full {
		if w := &t.hits[0]; dist > w.Dist || (dist == w.Dist && window < w.Window) {
			return
		}
	}
	h := Hit{Node: v, Label: t.universe.Label(v), Window: window, Dist: dist}
	if !full {
		t.hits = append(t.hits, h)
		for i := len(t.hits) - 1; i > 0; {
			parent := (i - 1) / 2
			if !ranksBefore(&t.hits[parent], &t.hits[i]) {
				break
			}
			t.hits[parent], t.hits[i] = t.hits[i], t.hits[parent]
			i = parent
		}
		return
	}
	if ranksBefore(&h, &t.hits[0]) {
		t.hits[0] = h
		t.siftDown(len(t.hits))
	}
}

// siftDown restores the heap over hits[:n] after the root changed.
func (t *topK) siftDown(n int) {
	for i := 0; ; {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if ranksBefore(&t.hits[worst], &t.hits[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.hits[i], t.hits[worst] = t.hits[worst], t.hits[i]
		i = worst
	}
}

// ranked is the answer, best first: the heap emptied in place.
func (t *topK) ranked() []Hit {
	for n := len(t.hits) - 1; n > 0; n-- {
		t.hits[0], t.hits[n] = t.hits[n], t.hits[0]
		t.siftDown(n)
	}
	return t.hits
}

// searchRing runs one query over a snapshotted ring, newest window
// first: candidate generation per window (the pairwise-engine querier,
// or the rows of a cold block) under the collector's current bound,
// exact distances, and one offer per surviving candidate. The collector
// holds TopK hits, and once it is full each further window is asked only
// for signatures no farther than the worst hit kept — the cost of a
// search follows its candidates, not the size of the archive. An
// approximate candidate source (the MinHash/LSH banding of internal/lsh,
// which pays only at ~10 000-source windows) is not a branch here:
// should such windows come to matter, it returns as a mode of
// distmat.Querier.
func (s *Store) searchRing(ring []entry, querier *distmat.Querier, d core.Distance, sig core.Signature, opts SearchOptions) []Hit {
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	if opts.MaxDist <= 0 {
		opts.MaxDist = 1
	}
	if opts.LastWindows > 0 && opts.LastWindows < len(ring) {
		ring = ring[len(ring)-opts.LastWindows:]
	}
	var exclude graph.NodeID = -1
	if opts.ExcludeLabel != "" {
		if v, ok := s.universe.Lookup(opts.ExcludeLabel); ok {
			exclude = v
		}
	}

	top := topK{k: opts.TopK, universe: s.universe}
	probes := 0 // exact distance evaluations across all windows
	// A cold window's rows are decoded one at a time into row, and only
	// those in rows when the bound allows leaving the others out.
	var rows []int
	var row core.Signature
	_, registered := core.KernelKindOf(d)
	for w := len(ring) - 1; w >= 0; w-- {
		e := ring[w]
		maxDist := top.bound(opts.MaxDist)
		if b := e.block; b != nil {
			// A row sharing no node with the query lies at exactly 1 under
			// a registered distance (core/kernel.go), so below that bound
			// only the sharing rows can rank — the closed form the
			// querier's thresholded path rests on. Of a distance the store
			// knows nothing about, every row is asked.
			n, sharing := b.Len(), registered && maxDist < 1
			if sharing {
				rows = b.Candidates(sig.Nodes, rows[:0])
				n = len(rows)
			}
			for j := range n {
				i := j
				if sharing {
					i = rows[j]
				}
				v := b.Source(i)
				if v == exclude || b.IsEmpty(i) {
					continue
				}
				probes++
				b.SigInto(i, &row)
				if dist := d.Dist(sig, row); dist <= maxDist {
					top.offer(v, b.Window(), dist)
				}
			}
			continue
		}
		set := e.set
		probes += querier.Neighbors(e.view, sig, maxDist, func(i int, dist float64) {
			if v := set.Sources[i]; v != exclude && !set.Sigs[i].IsEmpty() {
				top.offer(v, set.Window, dist)
			}
		})
	}
	s.obs.searchProbes.Observe(float64(probes))
	if opts.Stats != nil {
		opts.Stats.Probes += probes
	}
	return top.ranked()
}

// SearchLabel searches with the latest non-empty signature of label,
// excluding the label's own archived signatures from the results.
func (s *Store) SearchLabel(d core.Distance, label string, opts SearchOptions) ([]Hit, error) {
	e, ok, err := s.ReadLatestSignature(label)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("store: label %q has no archived signature", label)
	}
	if opts.ExcludeLabel == "" {
		opts.ExcludeLabel = label
	}
	return s.Search(d, e.Sig, opts)
}
