package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/server"
	"graphsig/internal/store"
)

// searchK is the result count every search asks for.
const searchK = 10

// batchQueries is the query count of one batch search.
const batchQueries = 32

// sameHits reports whether wire hits equal store hits bit for bit:
// label, window and the float64 distance.
func sameHits(got []server.SearchHitJSON, want []store.Hit) bool {
	return slices.EqualFunc(got, want, func(g server.SearchHitJSON, w store.Hit) bool {
		return g.Label == w.Label && g.Window == w.Window && g.Dist == w.Dist
	})
}

// sameHistory compares wire history entries with the reference store's:
// window, scheme, member labels and weights, in order.
func sameHistory(got []server.HistoryEntryJSON, want []store.HistoryEntry, u *graph.Universe) bool {
	return slices.EqualFunc(got, want, func(g server.HistoryEntryJSON, w store.HistoryEntry) bool {
		if g.Window != w.Window || g.Scheme != w.Scheme || !slices.Equal(g.Signature.Weights, w.Sig.Weights) {
			return false
		}
		return slices.EqualFunc(g.Signature.Nodes, w.Sig.Nodes, func(label string, id graph.NodeID) bool { return label == u.Label(id) })
	})
}

// labelSearch is a store's own answer to the label search the clients
// send: what a wire answer is compared with.
func labelSearch(s *store.Store, lastWindows int) func(label string) ([]store.Hit, error) {
	return func(label string) ([]store.Hit, error) {
		return s.SearchLabel(core.Jaccard{}, label, store.SearchOptions{TopK: searchK, LastWindows: lastWindows})
	}
}

// searchSlice sends one label search per label from one closed-loop
// client. Every checkEvery-th answer is compared with want's; the others
// are only counted.
func (b *bench) searchSlice(cl *server.Client, span string, labels []string, lastWindows, checkEvery int, want func(label string) ([]store.Hit, error)) (samples, error) {
	var lat samples
	for i, label := range labels {
		var resp server.SearchResponse
		var err error
		lat.add(b.rec.timed(span, 0, func() {
			resp, err = cl.Search(server.SearchRequest{Label: label, K: searchK, LastWindows: lastWindows})
		}))
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", span, label, err)
		}
		if want == nil || i%checkEvery != 0 {
			b.rep.op(len(resp.Hits) == searchK, "%s %q returned %d hits, want %d", span, label, len(resp.Hits), searchK)
			continue
		}
		ref, err := want(label)
		b.rep.op(err == nil && sameHits(resp.Hits, ref), "%s %q: hits differ from the reference (%v)", span, label, err)
	}
	return lat, nil
}

// queryStage reads from the preloaded node with one client: nothing is
// written, and the working set is larger than the ring.
type queryStage struct {
	b    *bench
	env  *environment
	hot  samples // every hot-search latency of the measured rounds
	hist samples // every history latency of the measured rounds
	// segment blocks loaded by the measured cold searches and histories
	coldLoads, histLoads int64
}

func newQueryStage(b *bench, env *environment) *queryStage {
	st := env.query.srv.Store()
	b.rep.op(st.Len() == ringCapacity && st.SegmentWindows() > b.sz.coldWindows,
		"query node holds %d hot and %d cold windows, want %d and more than %d", st.Len(), st.SegmentWindows(), ringCapacity, b.sz.coldWindows)
	return &queryStage{b: b, env: env}
}

func (s *queryStage) segmentLoads() int64 {
	return s.env.query.srv.Registry().Snapshot()["store_segment_loads"]
}

func (s *queryStage) round(r int) error {
	b, sz, q := s.b, s.b.sz, s.env.query
	depth := ringCapacity + sz.coldWindows
	phase := func(name string) string { return fmt.Sprintf("%s%d", name, r) }

	// Hot: the ring alone answers.
	hot, err := b.searchSlice(q.cl, "client.search_hot", b.ds.queryLabels(b.seed, phase("hot"), sz.hotSearches), ringCapacity, 10, labelSearch(q.srv.Store(), ringCapacity))
	if err != nil {
		return err
	}
	b.observe("search_hot_p50_ms", hot.median(), len(hot))
	if !b.warm {
		s.hot = pool(s.hot, hot)
	}

	// Batch: batchQueries hot searches in one request.
	labels := b.ds.queryLabels(b.seed, phase("batch"), sz.batchSearches*batchQueries)
	var batchWall time.Duration
	for i := 0; i < sz.batchSearches; i++ {
		slot := labels[i*batchQueries : (i+1)*batchQueries]
		req := server.BatchSearchRequest{Queries: make([]server.SearchRequest, batchQueries)}
		for j, label := range slot {
			req.Queries[j] = server.SearchRequest{Label: label, K: searchK, LastWindows: ringCapacity}
		}
		var resp server.BatchSearchResponse
		batchWall += b.rec.timed("client.search_batch", 0, func() { resp, err = q.cl.SearchBatch(req) })
		if err != nil {
			return fmt.Errorf("batch search: %w", err)
		}
		ok := len(resp.Results) == batchQueries
		if ok {
			// One slot of each batch is compared with a single search.
			j := (r + i) % batchQueries
			ref, rerr := labelSearch(q.srv.Store(), ringCapacity)(slot[j])
			ok = rerr == nil && resp.Results[j].Error == "" && sameHits(resp.Results[j].Hits, ref)
		}
		b.rep.op(ok, "batch search %d of round %d: a slot differs from the single search", i, r)
	}
	b.observe("search_batch_queries_per_s", float64(sz.batchSearches*batchQueries)/batchWall.Seconds(), sz.batchSearches)

	// Cold: the search reaches coldWindows windows behind the ring, and
	// must answer as a store that kept them all in memory would.
	loads := s.segmentLoads()
	cold, err := b.searchSlice(q.cl, "client.search_cold", b.ds.queryLabels(b.seed, phase("cold"), sz.coldSearches), depth, 3, labelSearch(s.env.reference, depth))
	if err != nil {
		return err
	}
	b.observe("search_cold_p50_ms", cold.median(), len(cold))
	if !b.warm {
		s.coldLoads += s.segmentLoads() - loads
	}

	// History: the newest depth entries of a label, coldWindows of them
	// out of segments. It reads the cold tier the way a cold search
	// does, so its latency is a per-layer metric of the traced run and
	// the phase is here for its output check.
	loads = s.segmentLoads()
	var hist samples
	for i, label := range b.ds.queryLabels(b.seed, phase("history"), sz.histories) {
		var resp server.HistoryResponse
		hist.add(b.rec.timed("client.history", 0, func() { resp, err = q.cl.HistoryRange(label, server.HistoryQuery{Limit: depth}) }))
		if err != nil {
			return fmt.Errorf("history %q: %w", label, err)
		}
		if i%3 != 0 {
			b.rep.op(len(resp.History) > ringCapacity, "history %q returned %d entries, none cold", label, len(resp.History))
			continue
		}
		ref, _, rerr := s.env.reference.HistoryRange(label, math.MinInt, math.MaxInt, depth)
		b.rep.op(rerr == nil && sameHistory(resp.History, ref, s.env.reference.Universe()), "history %q differs from the reference (%v)", label, rerr)
	}
	if !b.warm {
		s.hist = pool(s.hist, hist)
		s.histLoads += s.segmentLoads() - loads
	}
	return nil
}

func (s *queryStage) finish() error {
	s.b.reportOverRounds("search_hot_p50_ms", "search_batch_queries_per_s", "search_cold_p50_ms")
	if s.b.rec != nil {
		return s.layers()
	}
	return nil
}
