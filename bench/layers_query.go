package main

import (
	"bytes"
	"math"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/graph"
	"graphsig/internal/segment"
	"graphsig/internal/store"
)

// tailSamples is how many hot searches the traced run's tail percentiles
// rest on: ten of them lie beyond p99.
const tailSamples = 1000

// probeLabels is how many labels a probe that only needs a median asks
// about.
const probeLabels = 200

// layers calls the layers under the read path directly with queries
// drawn like the ones the HTTP phases asked.
func (s *queryStage) layers() error {
	b, env := s.b, s.env
	labels := b.ds.queryLabels(b.seed, "hot-probe", probeLabels)
	st := env.query.srv.Store()
	root := b.rec.begin("query.layers", 0)
	defer b.rec.end(root)
	var err error

	// The store with no HTTP around it: the same searches, then the two
	// variations that tell the kernel from the collect-and-sort.
	search := func(span string, d core.Distance, opts store.SearchOptions) (samples, error) {
		var lat samples
		for _, label := range labels {
			lat.add(b.rec.timed(span, root, func() { _, err = st.SearchLabel(d, label, opts) }))
			if err != nil {
				return nil, err
			}
		}
		return lat, nil
	}
	hotOpts := store.SearchOptions{TopK: searchK, LastWindows: ringCapacity}
	direct, err := search("store.search_label", core.Jaccard{}, hotOpts)
	if err != nil {
		return err
	}
	b.rep.layer("store.search_hot_ms", direct.median(), "ms", len(direct))
	b.rep.layer("server.search_http_overhead_ms", s.hot.median()-direct.median(), "ms", len(s.hot))
	// Tails are read off at least tailSamples requests.
	tail := s.hot
	if extra := tailSamples - len(tail); extra > 0 {
		more, err := b.searchSlice(env.query.cl, "client.search_hot", b.ds.queryLabels(b.seed, "hot-tail", extra), ringCapacity, 0, nil)
		if err != nil {
			return err
		}
		tail = pool(tail, more)
	}
	b.rep.layer("server.search_hot_p90_ms", tail.tail(0.90), "ms", len(tail))
	b.rep.layer("server.search_hot_p99_ms", tail.tail(0.99), "ms", len(tail))
	scaled, err := search("store.search_label_shel", core.ScaledHellinger{}, hotOpts)
	if err != nil {
		return err
	}
	b.rep.layer("store.search_scaled_ms", scaled.median(), "ms", len(scaled))
	thresholded, err := search("store.search_label_maxdist", core.Jaccard{}, store.SearchOptions{TopK: searchK, LastWindows: ringCapacity, MaxDist: 0.5})
	if err != nil {
		return err
	}
	b.rep.layer("store.search_thresholded_ms", thresholded.median(), "ms", len(thresholded))

	// Exact counts: distance evaluations, and signatures a hot search
	// collects and ranks.
	var stats store.SearchStats
	for _, label := range labels {
		if _, err := st.SearchLabel(core.Jaccard{}, label, store.SearchOptions{TopK: searchK, LastWindows: ringCapacity, Stats: &stats}); err != nil {
			return err
		}
	}
	b.rep.layer("store.search_probes_per_query", float64(stats.Probes)/float64(len(labels)), "count", len(labels))
	ranked := 0
	hotSets := st.Windows()
	for _, set := range hotSets {
		ranked += set.Len()
	}
	b.rep.layer("store.hits_ranked_per_query", float64(ranked), "count", len(hotSets))

	// The pairwise engine under the store: building one window's view,
	// and one query against a built view.
	var builds samples
	views := make([]*distmat.SetView, len(hotSets))
	for rep := 0; rep < 3; rep++ {
		for i, set := range hotSets {
			builds.add(b.rec.timed("distmat.view_build", root, func() { views[i] = distmat.NewSetView(set) }))
		}
	}
	b.rep.layer("distmat.view_build_ms", builds.median(), "ms", len(builds))
	querier, ok := distmat.NewQuerier(core.Jaccard{})
	if ok {
		var neighbors samples
		for _, label := range labels {
			sig, _, _ := st.LatestSignature(label)
			for _, view := range views {
				neighbors.add(b.rec.timed("distmat.neighbors", root, func() {
					querier.Neighbors(view, sig, 1, func(int, float64) {})
				}))
			}
		}
		querier.Release()
		b.rep.layer("distmat.neighbors_ms_per_window", neighbors.median(), "ms", len(neighbors))
	}
	b.rep.layer("store.batch_amortisation",
		batchQueries*b.rec.durations("client.search_hot").median()/b.rec.durations("client.search_batch").median(), "ratio", 1)

	// The cold tier: reading one window's block out of a segment, and
	// parsing a block of that size from memory.
	segFiles, err := segment.List(env.query.cfg.SegmentDir)
	if err != nil {
		return err
	}
	var reads samples
	for _, path := range segFiles[max(0, len(segFiles)-b.sz.coldWindows):] {
		seg, err := segment.Open(path, graph.NewUniverse())
		if err != nil {
			return err
		}
		for rep := 0; rep < 3; rep++ {
			for _, w := range seg.Windows() {
				reads.add(b.rec.timed("segment.read_window", root, func() { _, err = seg.ReadWindow(w) }))
				if err != nil {
					return err
				}
			}
		}
	}
	b.rep.layer("segment.read_window_ms", reads.median(), "ms", len(reads))
	var block bytes.Buffer
	if err := core.WriteSignatureSet(&block, hotSets[0], st.Universe()); err != nil {
		return err
	}
	parseUniverse := graph.NewUniverse()
	var parses samples
	for rep := 0; rep < 11; rep++ {
		d := b.rec.timed("core.read_signature_set", root, func() {
			_, err = core.ReadSignatureSet(bytes.NewReader(block.Bytes()), parseUniverse)
		})
		if err != nil {
			return err
		}
		if rep > 0 { // the first parse interns every label
			parses.add(d)
		}
	}
	b.rep.layer("core.read_signature_set_ms", parses.median(), "ms", len(parses))
	coldN, histN := b.sz.rounds*b.sz.coldSearches, b.sz.rounds*b.sz.histories
	b.rep.layer("store.segment_loads_per_cold_search", float64(s.coldLoads)/float64(coldN), "count", coldN)
	b.rep.layer("store.segment_loads_per_history", float64(s.histLoads)/float64(histN), "count", histN)
	var ranges samples
	depth := ringCapacity + b.sz.coldWindows
	for _, label := range b.ds.queryLabels(b.seed, "history-probe", probeLabels/4) {
		ranges.add(b.rec.timed("store.history_range", root, func() { _, _, err = st.HistoryRange(label, math.MinInt, math.MaxInt, depth) }))
		if err != nil {
			return err
		}
	}
	b.rep.layer("store.history_range_ms", ranges.median(), "ms", len(ranges))
	b.rep.layer("server.history_cold_p50_ms", s.hist.median(), "ms", len(s.hist))

	// What recording spans costs: searches with the recorder off and on
	// by turns, so that both see the same machine.
	var walls [2]float64
	traced := b.rec
	for i, label := range labels {
		b.rec = []*recorder{nil, traced}[i%2]
		lat, err := b.searchSlice(env.query.cl, "client.search_overhead", []string{label}, ringCapacity, 0, nil)
		b.rec = traced
		if err != nil {
			return err
		}
		walls[i%2] += lat.sum()
	}
	b.rep.layer("bench.trace_overhead_frac", walls[1]/walls[0]-1, "ratio", len(labels))
	return nil
}
