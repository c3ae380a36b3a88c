package simcheck

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"

	"graphsig/internal/server"
)

// distNames are the four paper distances the model reimplements.
var distNames = []string{"jaccard", "dice", "sdice", "shel"}

// The read checks: every read goes through the target's server.API and
// is held to the model, a node's and a router's alike.

// searchRequest draws one search under distance dist: by label, or half
// the time by the inline form of the label's latest signature in the
// model. The two differ at the server: a label is resolved there, an
// inline signature's unseen labels take provisional IDs.
func (s *sim) searchRequest(dist string) server.SearchRequest {
	label := s.pick()
	req := server.SearchRequest{Distance: dist, K: 1 + s.rng.Intn(8), MaxDist: 1}
	if s.rng.Bernoulli(0.5) {
		req.MaxDist = 0.2 + 0.6*s.rng.Float64()
	}
	if s.rng.Bernoulli(0.5) {
		req.ExcludeLabel = label
	}
	if s.rng.Bernoulli(0.3) {
		span := s.cfg.Capacity
		if s.cfg.Segments {
			// Reach well past the hot ring so windowed searches cross the
			// ring/segment boundary.
			span = 3 * s.cfg.Capacity
		}
		req.LastWindows = 1 + s.rng.Intn(span)
	}
	if sig, ok := s.model.archive.latestSignature(label); ok && s.rng.Bernoulli(0.5) {
		req.Signature = &server.SignatureJSON{Nodes: sig.Labels, Weights: sig.Weights}
	} else {
		req.Label = label
	}
	return req
}

// describe is a search request as the trace shows it.
func describe(req server.SearchRequest) string {
	query := "label=" + req.Label
	if req.Signature != nil {
		query = fmt.Sprintf("sig=%v/%v", req.Signature.Nodes, req.Signature.Weights)
	}
	return fmt.Sprintf("%s dist=%s k=%d maxdist=%.6f exclude=%q last=%d",
		query, req.Distance, req.K, req.MaxDist, req.ExcludeLabel, req.LastWindows)
}

func (s *sim) opSearch() error {
	if err := s.align(); err != nil {
		return err
	}
	req := s.searchRequest(distNames[s.rng.Intn(len(distNames))])
	s.note("search %s", describe(req))
	resp, err := s.api.Search(context.Background(), req)
	if err != nil && server.Status(err) != http.StatusNotFound {
		return s.fail("search %s: status %d: %v", describe(req), server.Status(err), err)
	}
	if err := s.checkSearch(req, resp.Hits, err, resp.Coverage); err != nil {
		return err
	}
	return s.cheapCompare()
}

// opBatchSearch asks a few searches in one batch, now and then with a
// slot for a label nothing ever sent: that slot must fail, alone.
func (s *sim) opBatchSearch() error {
	if err := s.align(); err != nil {
		return err
	}
	req := server.BatchSearchRequest{Distance: distNames[s.rng.Intn(len(distNames))]}
	for n := 1 + s.rng.Intn(4); n > 0; n-- {
		req.Queries = append(req.Queries, s.searchRequest(req.Distance))
	}
	if s.rng.Bernoulli(0.3) {
		absent := server.SearchRequest{Label: "absent", Distance: req.Distance, K: 1}
		req.Queries = slices.Insert(req.Queries, s.rng.Intn(len(req.Queries)+1), absent)
	}
	s.note("batch search dist=%s n=%d", req.Distance, len(req.Queries))
	resp, err := s.api.SearchBatch(context.Background(), req)
	if err != nil {
		return s.fail("batch search: %v", err)
	}
	if len(resp.Results) != len(req.Queries) {
		return s.fail("batch search answered %d slots of %d", len(resp.Results), len(req.Queries))
	}
	for i, q := range req.Queries {
		var slotErr error
		if msg := resp.Results[i].Error; msg != "" {
			slotErr = errors.New(msg)
		}
		if err := s.checkSearch(q, resp.Results[i].Hits, slotErr, resp.Coverage); err != nil {
			return err
		}
	}
	return s.cheapCompare()
}

// checkSearch holds one search's answer — its hits, or the refusal err
// — to the model's full ranking of req. The model ranks with a loosened
// threshold and counts as certain only the hits strictly inside it, so
// the checks hold whatever order a kernel sums its floats in.
func (s *sim) checkSearch(req server.SearchRequest, hits []server.SearchHitJSON, err error, cov *server.Coverage) error {
	query, ok := s.model.archive.latestSignature(req.Label)
	exclude := req.ExcludeLabel
	switch {
	case req.Signature != nil:
		query, ok = refSig{Labels: req.Signature.Nodes, Weights: req.Signature.Weights}, true
	case exclude == "":
		exclude = req.Label // a label query leaves its own label out
	}
	switch {
	case !ok && err == nil:
		return s.fail("search %s answered; the model holds no signature of %s", describe(req), req.Label)
	case !ok:
		return nil
	case err != nil:
		return s.fail("search %s refused: %v", describe(req), err)
	case cov != nil && cov.ShardsOK != cov.ShardsTotal:
		return s.fail("search %s answered by %d of %d shards", describe(req), cov.ShardsOK, cov.ShardsTotal)
	}
	key := func(h server.SearchHitJSON) server.SearchHitJSON { h.Dist = 0; return h }
	loose := s.model.archive.search(req.Distance, query, req.MaxDist+distTol, exclude, req.LastWindows)
	unserved := make(map[server.SearchHitJSON]float64, len(loose))
	for _, h := range loose {
		unserved[key(h)] = h.Dist
	}
	for i, h := range hits {
		// Every served hit must be in the model's loose ranking, once,
		// with an agreeing distance, within MaxDist, and sorted.
		md, ok := unserved[key(h)]
		switch {
		case !ok:
			return s.fail("hit (%s, w%d, %.9f) not in model ranking, or served twice", h.Label, h.Window, h.Dist)
		case math.Abs(md-h.Dist) > distTol || h.Dist > req.MaxDist:
			return s.fail("hit (%s, w%d): served dist %.12f, model %.12f, max %.9f", h.Label, h.Window, h.Dist, md, req.MaxDist)
		case i > 0 && hits[i-1].Dist > h.Dist+distTol:
			return s.fail("hits unsorted at %d: %.12f then %.12f", i, hits[i-1].Dist, h.Dist)
		}
		delete(unserved, key(h))
	}
	// Every search is an exact scan: count bounds, and when nothing was
	// truncated every certain hit is there.
	certain := 0
	for _, h := range loose {
		if h.Dist <= req.MaxDist-distTol {
			certain++
			if _, missing := unserved[key(h)]; missing && len(hits) < req.K {
				return s.fail("model hit (%s, w%d, %.9f) missing from untruncated result", h.Label, h.Window, h.Dist)
			}
		}
	}
	if len(hits) < min(req.K, certain) || len(hits) > min(req.K, len(loose)) {
		return s.fail("%d hits served, model wants %d..%d", len(hits), min(req.K, certain), min(req.K, len(loose)))
	}
	return nil
}

// opHistory reads a label's history, half the time bounded by a
// from/to/limit query around the model's window range.
func (s *sim) opHistory() error {
	if err := s.align(); err != nil {
		return err
	}
	req := server.HistoryRequest{Label: s.pick()}
	if s.rng.Bernoulli(0.5) {
		lo, hi := s.model.archive.windowRange()
		q := &req.Query
		if s.rng.Bernoulli(0.5) {
			q.From, q.HasFrom = lo-1+s.rng.Intn(hi-lo+3), true
		}
		if s.rng.Bernoulli(0.5) {
			q.To, q.HasTo = lo-1+s.rng.Intn(hi-lo+3), true
		}
		q.Limit = []int{0, -1, 1 + s.rng.Intn(4)}[s.rng.Intn(3)]
	}
	s.note("history label=%s query=%+v", req.Label, req.Query)
	resp, err := s.api.History(context.Background(), req)
	want, truncated := s.model.archive.history(req.Label, req.Query)
	switch {
	case len(want) == 0 && server.Status(err) != http.StatusNotFound:
		return s.fail("history of %s: status %d (%v), model holds none", req.Label, server.Status(err), err)
	case len(want) == 0:
		return s.cheapCompare()
	case err != nil:
		return s.fail("history of %s: %v", req.Label, err)
	case len(resp.History) != len(want) || resp.Truncated != truncated || resp.Label != req.Label:
		return s.fail("history of %s: %d entries truncated=%v, model %d truncated=%v",
			req.Label, len(resp.History), resp.Truncated, len(want), truncated)
	}
	for i, got := range resp.History {
		if got.Window != want[i].Window || got.Scheme != want[i].Scheme || !sameSig(got.Signature, want[i].Sig) {
			return s.fail("history of %s entry %d: served (w%d, %s, %v/%v), model (w%d, %s, %v/%v)",
				req.Label, i, got.Window, got.Scheme, got.Signature.Nodes, got.Signature.Weights,
				want[i].Window, want[i].Scheme, want[i].Sig.Labels, want[i].Sig.Weights)
		}
	}
	return s.cheapCompare()
}

// sameSig reports whether a served signature has want's members and
// weights, bit for bit. Entry order is left out: equal weights order by
// NodeID, which a shard interns in an order of its own (deepCompare
// holds a node's order to the model's).
func sameSig(got server.SignatureJSON, want refSig) bool {
	return len(got.Nodes) == len(want.Labels) && len(got.Weights) == len(got.Nodes) &&
		maps.Equal(refSig{Labels: got.Nodes, Weights: got.Weights}.weights(), want.weights())
}

// opWatchAdd watches a label's archived signatures as a new individual;
// four are plenty, each screening every window closed after it.
func (s *sim) opWatchAdd() error {
	if s.individuals >= 4 {
		return s.opHits()
	}
	if err := s.align(); err != nil {
		return err
	}
	req := server.WatchlistAddRequest{Individual: fmt.Sprintf("ind-%02d", s.individuals), Label: s.pick()}
	s.note("watchlist add %s label=%s", req.Individual, req.Label)
	resp, err := s.api.WatchlistAdd(context.Background(), req)
	archived := s.model.watchAdd(req.Individual, req.Label)
	switch {
	case archived == 0 && server.Status(err) != http.StatusNotFound:
		return s.fail("watchlist add %s: status %d (%v), model archives nothing", req.Label, server.Status(err), err)
	case archived == 0:
		return s.cheapCompare()
	case err != nil:
		return s.fail("watchlist add %s: %v", req.Label, err)
	case resp.Archived != archived || resp.Total != len(s.model.watch):
		return s.fail("watchlist add %s archived %d of %d, model %d of %d",
			req.Label, resp.Archived, resp.Total, archived, len(s.model.watch))
	}
	s.individuals++
	return s.cheapCompare()
}

// opHits reads the watchlist hit log: each node's log — a router's
// answer is its shards' logs merged — must hold what it keeps of the
// model's screening of every window closed since each add.
func (s *sim) opHits() error {
	if err := s.align(); err != nil {
		return err
	}
	s.note("watchlist hits")
	resp, err := s.api.WatchlistHits(context.Background())
	if err != nil {
		return s.fail("watchlist hits: %v", err)
	}
	if c := resp.Coverage; c != nil && c.ShardsOK != c.ShardsTotal {
		return s.fail("watchlist hits answered by %d of %d shards", c.ShardsOK, c.ShardsTotal)
	}
	logOf := func(string) int { return 0 }
	if s.router != nil {
		logOf = s.router.Ring().Shard
	}
	for log := 0; log < max(1, s.cfg.Shards); log++ {
		var served, screened []server.WatchHitJSON
		for _, h := range resp.Hits {
			if logOf(h.Label) == log {
				served = append(served, h)
			}
		}
		for _, h := range s.model.hits {
			if logOf(h.Label) == log {
				screened = append(screened, h)
			}
		}
		// A log keeps the newest server.DefaultHitLogSize of its hits,
		// each window's in SortWatchHits order, as the model logs them.
		if !slices.Equal(served, screened[max(0, len(screened)-server.DefaultHitLogSize):]) {
			return s.fail("watchlist hits of log %d: served %d %v, model screened %d %v", log, len(served), served, len(screened), screened)
		}
	}
	return s.cheapCompare()
}

// The node-only checks: they read a node's store, which its API does
// not expose, and pass on a router target.

// cheapCompare runs the O(1) invariants after every op. The window
// count spans both tiers: hot ring plus unshadowed segment windows
// (SegmentWindows is 0 when no tier is attached).
func (s *sim) cheapCompare() error {
	if s.srv == nil {
		return nil
	}
	st := s.srv.Store()
	n, want := st.Len()+st.SegmentWindows(), len(s.model.archive.windows)
	gl, gh, gok := st.WindowRange()
	if wl, wh := s.model.archive.windowRange(); n != want || gok != (want > 0) || gl != wl || gh != wh {
		return s.fail("store has %d windows (%d hot) in [%d,%d], model %d in [%d,%d]", n, st.Len(), gl, gh, want, wl, wh)
	}
	return nil
}

// deepCompare checks full state equality: the universe's interning
// order (labels and parts in NodeID order) and every archived window's
// sources and signatures, bit-exact in label space.
func (s *sim) deepCompare(when string) error {
	if err := s.cheapCompare(); err != nil || s.srv == nil {
		return err
	}
	// Interning ORDER must match, not just membership: NodeIDs break
	// weight ties in canonical signatures, so a permuted universe would
	// silently reorder signature entries.
	u := s.srv.Store().Universe()
	if got, want := universeDump(u), universeDump(s.model.u); !slices.Equal(got, want) {
		return s.fail("%s: universe: server %v, model %v", when, got, want)
	}
	// Fetch windows by index through Store.Window, which falls through
	// to cold segments — the count equality in cheapCompare plus one
	// fetch per model window covers both tiers exactly.
	for _, want := range s.model.archive.windows {
		set, err := s.srv.Store().Window(want.Window)
		switch {
		case err != nil:
			return s.fail("%s: reading window %d: %v", when, want.Window, err)
		case set == nil:
			return s.fail("%s: window %d missing from store", when, want.Window)
		}
		if got := toRefWindow(u, set); !equalWindow(got, want) {
			return s.fail("%s: window %d: server %+v, model %+v", when, want.Window, got, want)
		}
	}
	return nil
}
