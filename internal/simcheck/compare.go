package simcheck

import (
	"math"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/store"
)

// distNames are the four paper distances the model reimplements.
var distNames = []string{"jaccard", "dice", "sdice", "shel"}

// opSearch picks a label with an archived signature, fetches its
// latest signature from both sides, and cross-checks a ranked search.
func (s *sim) opSearch() error {
	label := s.labels[s.rng.Intn(len(s.labels))]
	dname := distNames[s.rng.Intn(len(distNames))]
	opts := store.SearchOptions{
		TopK:    1 + s.rng.Intn(8),
		MaxDist: 1,
	}
	if s.rng.Bernoulli(0.5) {
		opts.MaxDist = 0.2 + 0.6*s.rng.Float64()
	}
	if s.rng.Bernoulli(0.5) {
		opts.ExcludeLabel = label
	}
	if s.rng.Bernoulli(0.3) {
		span := s.cfg.Capacity
		if s.cfg.Segments {
			// Reach well past the hot ring so windowed searches cross the
			// ring/segment boundary.
			span = 3 * s.cfg.Capacity
		}
		opts.LastWindows = 1 + s.rng.Intn(span)
	}
	s.note("search label=%s dist=%s topk=%d maxdist=%.6f exclude=%q last=%d",
		label, dname, opts.TopK, opts.MaxDist, opts.ExcludeLabel, opts.LastWindows)

	msig, mwin, mok := s.model.archive.latestSignature(label)
	ssig, swin, sok := s.srv.Store().LatestSignature(label)
	if mok != sok {
		return s.fail("latest signature of %s: server ok=%v, model ok=%v", label, sok, mok)
	}
	if !mok {
		return s.cheapCompare()
	}
	if swin != mwin {
		return s.fail("latest signature of %s: server window %d, model window %d", label, swin, mwin)
	}
	if got := toRefSig(s.srv.Store().Universe(), ssig); !equalRefSig(got, msig) {
		return s.fail("latest signature of %s differs: server %v/%v, model %v/%v",
			label, got.Labels, got.Weights, msig.Labels, msig.Weights)
	}

	d, ok := core.DistanceByName(dname)
	if !ok {
		return s.fail("unknown distance %s", dname)
	}
	hits, err := s.srv.Store().Search(d, ssig, opts)
	if err != nil {
		return s.fail("server search: %v", err)
	}
	// The model computes the FULL ranking with a loosened threshold;
	// must-have hits are strictly inside it. The tolerance bands make
	// the boundary check robust to kernel-vs-naive float summation
	// order.
	loose := s.model.archive.search(dname, msig, opts.MaxDist+distTol, opts.ExcludeLabel, opts.LastWindows)
	var must []refHit
	for _, h := range loose {
		if h.Dist <= opts.MaxDist-distTol {
			must = append(must, h)
		}
	}
	looseByKey := make(map[[2]any]float64, len(loose))
	for _, h := range loose {
		looseByKey[[2]any{h.Label, h.Window}] = h.Dist
	}
	serverByKey := make(map[[2]any]float64, len(hits))
	for i, h := range hits {
		// Every server hit must exist in the model's loose ranking with
		// an agreeing distance, respect MaxDist, and be sorted.
		md, ok := looseByKey[[2]any{h.Label, h.Window}]
		if !ok {
			return s.fail("server hit (%s, w%d, %.9f) not in model ranking", h.Label, h.Window, h.Dist)
		}
		if math.Abs(md-h.Dist) > distTol {
			return s.fail("hit (%s, w%d): server dist %.12f, model %.12f", h.Label, h.Window, h.Dist, md)
		}
		if h.Dist > opts.MaxDist {
			return s.fail("server hit (%s, w%d, %.9f) beyond MaxDist %.9f", h.Label, h.Window, h.Dist, opts.MaxDist)
		}
		if i > 0 && hits[i-1].Dist > h.Dist+distTol {
			return s.fail("server hits unsorted at %d: %.12f then %.12f", i, hits[i-1].Dist, h.Dist)
		}
		serverByKey[[2]any{h.Label, h.Window}] = h.Dist
	}
	if len(hits) > opts.TopK {
		return s.fail("server returned %d hits, TopK %d", len(hits), opts.TopK)
	}

	// Every search is an exact scan: count bounds and completeness.
	if lo := minInt(opts.TopK, len(must)); len(hits) < lo {
		return s.fail("server returned %d hits, model requires ≥ %d (of %d certain hits)", len(hits), lo, len(must))
	}
	if hi := minInt(opts.TopK, len(loose)); len(hits) > hi {
		return s.fail("server returned %d hits, model allows ≤ %d", len(hits), hi)
	}
	if len(hits) < opts.TopK {
		// Nothing was truncated, so every certain hit must be present.
		for _, h := range must {
			if _, ok := serverByKey[[2]any{h.Label, h.Window}]; !ok {
				return s.fail("model hit (%s, w%d, %.9f) missing from untruncated server result", h.Label, h.Window, h.Dist)
			}
		}
	}
	return s.cheapCompare()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// opHistory cross-checks a label's full archived history.
func (s *sim) opHistory() error {
	label := s.labels[s.rng.Intn(len(s.labels))]
	s.note("history label=%s", label)
	got := s.srv.Store().History(label)
	want := s.model.archive.history(label)
	if len(got) != len(want) {
		return s.fail("history of %s: server %d entries, model %d", label, len(got), len(want))
	}
	u := s.srv.Store().Universe()
	for i := range got {
		if got[i].Window != want[i].Window || got[i].Scheme != want[i].Scheme {
			return s.fail("history of %s entry %d: server (w%d, %s), model (w%d, %s)",
				label, i, got[i].Window, got[i].Scheme, want[i].Window, want[i].Scheme)
		}
		if sig := toRefSig(u, got[i].Sig); !equalRefSig(sig, want[i].Sig) {
			return s.fail("history of %s window %d: signatures differ", label, got[i].Window)
		}
	}
	return s.cheapCompare()
}

// cheapCompare runs the O(1) invariants after every op. The window
// count spans both tiers: hot ring plus unshadowed segment windows
// (SegmentWindows is 0 when no tier is attached).
func (s *sim) cheapCompare() error {
	st := s.srv.Store()
	if got, want := st.Len()+st.SegmentWindows(), len(s.model.archive.windows); got != want {
		return s.fail("store has %d windows (%d hot + %d cold), model %d", got, st.Len(), st.SegmentWindows(), want)
	}
	gl, gh, gok := s.srv.Store().WindowRange()
	var wl, wh int
	wok := len(s.model.archive.windows) > 0
	if wok {
		wl = s.model.archive.windows[0].Window
		wh = s.model.archive.windows[len(s.model.archive.windows)-1].Window
	}
	if gok != wok || gl != wl || gh != wh {
		return s.fail("window range: server [%d,%d] ok=%v, model [%d,%d] ok=%v", gl, gh, gok, wl, wh, wok)
	}
	return nil
}

// deepCompare checks full state equality: the universe's interning
// order (labels and parts in NodeID order) and every archived window's
// sources and signatures, bit-exact in label space.
func (s *sim) deepCompare(when string) error {
	if err := s.cheapCompare(); err != nil {
		return err
	}
	u := s.srv.Store().Universe()
	if got, want := u.Size(), s.model.u.Size(); got != want {
		return s.fail("%s: universe size: server %d, model %d", when, got, want)
	}
	// Interning ORDER must match, not just membership: NodeIDs break
	// weight ties in canonical signatures, so a permuted universe would
	// silently reorder signature entries.
	for i, lp := range s.model.universeDump() {
		v := graph.NodeID(i)
		if u.Label(v) != lp.Label || u.PartOf(v) != lp.Part {
			return s.fail("%s: universe id %d: server %q/%v, model %q/%v",
				when, i, u.Label(v), u.PartOf(v), lp.Label, lp.Part)
		}
	}
	// Fetch windows by index through Store.Window, which falls through
	// to cold segments — the count equality in cheapCompare plus one
	// fetch per model window covers both tiers exactly.
	for i, want := range s.model.archive.windows {
		set, err := s.srv.Store().Window(want.Window)
		if err != nil {
			return s.fail("%s: reading window %d: %v", when, want.Window, err)
		}
		if set == nil {
			return s.fail("%s: window %d missing from store", when, want.Window)
		}
		got := toRefWindow(u, set)
		if got.Window != want.Window || got.Scheme != want.Scheme {
			return s.fail("%s: window %d: server (w%d, %s), model (w%d, %s)",
				when, i, got.Window, got.Scheme, want.Window, want.Scheme)
		}
		if len(got.Order) != len(want.Order) {
			return s.fail("%s: window %d has %d sources on server, %d in model", when, got.Window, len(got.Order), len(want.Order))
		}
		for j, label := range got.Order {
			if label != want.Order[j] {
				return s.fail("%s: window %d source %d: server %q, model %q", when, got.Window, j, label, want.Order[j])
			}
			if !equalRefSig(got.Sigs[label], want.Sigs[label]) {
				return s.fail("%s: window %d signature of %q differs: server %v/%v, model %v/%v",
					when, got.Window, label,
					got.Sigs[label].Labels, got.Sigs[label].Weights,
					want.Sigs[label].Labels, want.Sigs[label].Weights)
			}
		}
	}
	return nil
}
