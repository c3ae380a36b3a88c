package main

import (
	"graphsig/internal/core"
	"graphsig/internal/distmat"
)

// analyticsLayers times what the analytics pass is made of: flattening
// the signatures, building the engine's views, the row kernels, and each
// call of the pass (from the spans the passes recorded).
func (s *analyticsStage) layers() error {
	b := s.b
	root := b.rec.begin("analytics.layers", 0)
	defer b.rec.end(root)
	set := s.setA
	n := set.Len()
	jaccard := core.Jaccard{}
	b.rep.layer("core.compute_set_ms", b.rec.durations("core.compute_set").median(), "ms", len(b.rec.durations("core.compute_set")))

	var flats samples
	for rep := 0; rep < 5; rep++ {
		flats.add(b.rec.timed("core.flat_build", root, func() { core.NewFlatSigs(set.Sigs) }))
	}
	b.rep.layer("core.flat_build_ms", flats.median(), "ms", len(flats))

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	var whole, kernel samples
	for rep := 0; rep < 3; rep++ {
		whole.add(b.rec.timed("distmat.all_pairs", root, func() {
			if eng, ok := distmat.NewEngine(set, set, jaccard, 0); ok {
				eng.Rows(rows, func(int, []float64) {})
			}
		}))
		view := distmat.NewSetView(set)
		if eng, ok := distmat.NewEngineOn(view, view, jaccard, 0); ok {
			kernel.add(b.rec.timed("distmat.rows", root, func() { eng.Rows(rows, func(int, []float64) {}) }))
		}
	}
	pairs := float64(n) * float64(n)
	b.rep.layer("distmat.pairs_per_s", pairs/(whole.median()/1000), "1/s", len(whole))
	if len(kernel) > 0 {
		b.rep.layer("distmat.kernel_pairs_per_s", pairs/(kernel.median()/1000), "1/s", len(kernel))
	}

	// Seconds each call took per pass, the warm-up pass included.
	passes := float64(len(b.rec.durations("analytics.pass")))
	for span, name := range map[string]string{
		"eval.uniqueness": "eval.uniqueness_s",
		"eval.self_auc":   "eval.self_auc_s",
		"apps.multiusage": "apps.multiusage_s",
		"apps.anomalies":  "apps.anomalies_s",
	} {
		b.rep.layer(name, b.rec.durations(span).sum()/1000/passes, "s", int(passes))
	}
	return nil
}
