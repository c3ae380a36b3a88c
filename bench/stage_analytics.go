package main

import (
	"math"
	"time"

	"graphsig/internal/apps"
	"graphsig/internal/core"
	"graphsig/internal/eval"
	"graphsig/internal/stats"
)

// anomalyZCut is the z-score below which DetectAnomalies flags a label.
const anomalyZCut = 2.0

// multiusageThreshold is the distance at or under which two labels of
// one window count as one individual.
const multiusageThreshold = 0.5

// passResult is everything one analytics pass computed; passes over the
// same sets must agree.
type passResult struct {
	uniqueness  [2]stats.Summary // Jaccard, ScaledHellinger
	multiusage  [2]int           // pairs found under each
	persistence stats.Summary
	anomalies   int
	anomalyBase stats.Summary
	auc         float64
}

// equal compares two passes. Persistence is accumulated in map order, so
// its mean and deviation repeat only to rounding; everything else rides
// the pairwise engine in a fixed order and must repeat exactly.
func (r passResult) equal(o passResult) bool {
	close := func(a, b stats.Summary) bool {
		return a.N == b.N && a.Min == b.Min && a.Max == b.Max &&
			math.Abs(a.Mean-b.Mean) <= 1e-9 && math.Abs(a.StdDev-b.StdDev) <= 1e-9
	}
	return r.uniqueness == o.uniqueness && r.multiusage == o.multiusage && r.anomalies == o.anomalies && r.auc == o.auc &&
		close(r.persistence, o.persistence) && close(r.anomalyBase, o.anomalyBase)
}

// analyticsStage runs the library with no server, WAL, segment or
// cluster in the way: one pass per round of the paper's evaluation over
// a pair of windows.
type analyticsStage struct {
	b          *bench
	setA, setB *core.SignatureSet
	first      *passResult // the warm-up pass: what every later pass must repeat
}

func newAnalyticsStage(b *bench, env *environment) *analyticsStage {
	return &analyticsStage{b: b, setA: env.setA, setB: env.setB}
}

// pass computes uniqueness over all pairs and multiusage detection under
// two distances, persistence, anomaly detection and self-retrieval AUC.
func (s *analyticsStage) pass() (passResult, error) {
	b := s.b
	var r passResult
	var err error
	parent := b.rec.begin("analytics.pass", 0)
	defer b.rec.end(parent)
	for i, d := range []core.Distance{core.Jaccard{}, core.ScaledHellinger{}} {
		b.rec.timed("eval.uniqueness", parent, func() { r.uniqueness[i] = eval.UniquenessSummary(d, s.setA, 0, 0) })
		var pairs []apps.SimilarPair
		b.rec.timed("apps.multiusage", parent, func() { pairs, err = apps.DetectMultiusage(d, s.setA, multiusageThreshold) })
		if err != nil {
			return r, err
		}
		r.multiusage[i] = len(pairs)
	}
	jaccard := core.Jaccard{}
	b.rec.timed("eval.persistence", parent, func() { r.persistence = eval.PersistenceSummary(jaccard, s.setA, s.setB) })
	var found []apps.Anomaly
	b.rec.timed("apps.anomalies", parent, func() { found, r.anomalyBase, err = apps.DetectAnomalies(jaccard, s.setA, s.setB, anomalyZCut) })
	if err != nil {
		return r, err
	}
	r.anomalies = len(found)
	b.rec.timed("eval.self_auc", parent, func() { r.auc, err = eval.SelfRetrievalAUC(jaccard, s.setA, s.setB) })
	return r, err
}

func (s *analyticsStage) round(int) error {
	b := s.b
	t0 := time.Now()
	r, err := s.pass()
	if err != nil {
		return err
	}
	b.observe("analytics_s", time.Since(t0).Seconds(), 1)
	if s.first == nil {
		s.first = &r
		n := s.setA.Len()
		b.rep.op(r.uniqueness[0].N == n*(n-1) && r.persistence.N > 0 && r.auc > 0.5,
			"analytics: %d uniqueness pairs and %d persistence values over %d sources, AUC %v", r.uniqueness[0].N, r.persistence.N, n, r.auc)
		return nil
	}
	b.rep.op(r.equal(*s.first), "an analytics pass differs from the first: %+v vs %+v", r, *s.first)
	return nil
}

func (s *analyticsStage) finish() error {
	s.b.reportOverRounds("analytics_s")
	if s.b.rec != nil {
		return s.layers()
	}
	return nil
}
