package eval

import (
	"fmt"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/graph"
	"graphsig/internal/stats"
)

// The pairwise metrics below all ride the pairwise engine
// (internal/distmat), whatever the distance: a registered kind — every
// distance in core.ExtendedDistances — runs on its sparse kernel, a
// custom Distance implementation has each cell filled by its own Dist
// under the same scheduler. Either way engine results are bit-identical
// to the naive loops (property tests in distmat enforce it).

// Persistence computes 1 − Dist(σ_t(v), σ_{t+1}(v)) for every source
// present in both sets (§II-C). Sources missing from either set are
// skipped: a label absent from a window has no signature to compare.
func Persistence(d core.Distance, at, next *core.SignatureSet) map[graph.NodeID]float64 {
	return selfSimilarity(d, at, next)
}

// selfSimilarity is 1 − Dist(a(v), b(v)) for every source v of a that b
// also holds: persistence across time, robustness across perturbation.
func selfSimilarity(d core.Distance, a, b *core.SignatureSet) map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64)
	eng := distmat.NewPointwise(a, b, d)
	for i, v := range a.Sources {
		if j, present := b.IndexOf(v); present {
			out[v] = 1 - eng.Dist(i, j)
		}
	}
	return out
}

// PersistenceSummary summarizes per-node persistence as the paper's
// (μ_p, s_p) ellipse axis.
func PersistenceSummary(d core.Distance, at, next *core.SignatureSet) stats.Summary {
	var acc stats.Accumulator
	for _, p := range Persistence(d, at, next) {
		acc.Add(p)
	}
	return acc.Summarize()
}

// UniquenessSummary summarizes Dist(σ_t(v), σ_t(u)) over ordered pairs
// v ≠ u of sources within one window as the paper's (μ_u, s_u) ellipse
// axis. For large source sets the pair count is quadratic; maxPairs > 0
// caps the work by deterministic uniform pair sampling (0 = exact).
//
// The exact path rides the engine's per-row reducers: each row is
// reduced, in the worker that computed it, to a two-pass partial
// (stats.Batch) over its candidates plus the run of columns at exactly
// 1 (stats.Repeat), and the partials are merged in row order
// (stats.Accumulator.Merge). A registered distance is exactly
// symmetric, so only the triangle above the diagonal is computed
// (distmat.MapTriangle) and the merged result counted twice — merged
// with itself, which doubles N and M2 exactly. Of a custom Distance
// nothing is assumed: every ordered pair is computed. The summary has
// the same bits whatever the worker count, and agrees with a Welford
// chain over the naive double loop to rounding (N, Min and Max
// exactly).
func UniquenessSummary(d core.Distance, set *core.SignatureSet, maxPairs int, seed int64) stats.Summary {
	n := set.Len()
	var acc stats.Accumulator
	if n < 2 {
		return acc.Summarize()
	}
	if total := n * (n - 1); maxPairs > 0 && total > maxPairs {
		eng := distmat.NewPointwise(set, set, d)
		rng := stats.NewRNG(seed)
		for p := 0; p < maxPairs; p++ {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			acc.Add(eng.Dist(i, j))
		}
		return acc.Summarize()
	}
	eng, _ := distmat.NewEngine(set, set, d, 0)
	merge := func(_ int, part stats.Accumulator) { acc.Merge(part) }
	if _, registered := core.KernelKindOf(d); registered {
		distmat.MapTriangle(eng, func(i int, row distmat.Candidates) stats.Accumulator {
			part := stats.Batch(row.Dist)
			part.Merge(stats.Repeat(1, n-1-i-len(row.Cols)))
			return part
		}, merge)
		acc.Merge(acc)
		return acc.Summarize()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Every column is a candidate, in order: row.Dist is the whole row.
	distmat.MapRows(eng, idx, func(i int, row distmat.Candidates) stats.Accumulator {
		part := stats.Batch(row.Dist[:i])
		part.Merge(stats.Batch(row.Dist[i+1:]))
		return part
	}, merge)
	return acc.Summarize()
}

// Robustness computes 1 − Dist(σ(v), σ̂(v)) per source, where hat is the
// signature set computed from a perturbed graph (§II-C, §IV-C).
func Robustness(d core.Distance, clean, perturbed *core.SignatureSet) map[graph.NodeID]float64 {
	return selfSimilarity(d, clean, perturbed)
}

// RobustnessSummary summarizes per-node robustness.
func RobustnessSummary(d core.Distance, clean, perturbed *core.SignatureSet) stats.Summary {
	var acc stats.Accumulator
	for _, r := range Robustness(d, clean, perturbed) {
		acc.Add(r)
	}
	return acc.Summarize()
}

// Ellipse is one point of Figure 1: the span of persistence and
// uniqueness values of a (scheme, distance, window) combination,
// centered at the means with the standard deviations as diameters.
type Ellipse struct {
	Scheme      string
	Distance    string
	Persistence stats.Summary
	Uniqueness  stats.Summary
}

// String renders "scheme/distance: P=μ±s U=μ±s".
func (e Ellipse) String() string {
	return fmt.Sprintf("%s/%s: P=%.4f±%.4f U=%.4f±%.4f",
		e.Scheme, e.Distance,
		e.Persistence.Mean, e.Persistence.StdDev,
		e.Uniqueness.Mean, e.Uniqueness.StdDev)
}

// EllipseFor computes the Figure 1 ellipse for one scheme and distance
// across a window pair.
func EllipseFor(d core.Distance, at, next *core.SignatureSet, maxPairs int, seed int64) Ellipse {
	return Ellipse{
		Scheme:      at.Scheme,
		Distance:    d.Name(),
		Persistence: PersistenceSummary(d, at, next),
		Uniqueness:  UniquenessSummary(d, at, maxPairs, seed),
	}
}

// selfRetrievalRows pairs the sources present in both sets: rows[t] is
// a source's index in at, cols[t] its index in next.
func selfRetrievalRows(at, next *core.SignatureSet) (rows, cols []int) {
	rows, cols = make([]int, 0, at.Len()), make([]int, 0, at.Len())
	for i, v := range at.Sources {
		if j, ok := next.IndexOf(v); ok {
			rows, cols = append(rows, i), append(cols, j)
		}
	}
	return rows, cols
}

// SelfRetrievalQueries builds the §IV-C ROC queries: for each source v
// present in both sets, candidates are the sources of next scored by
// Dist(σ_t(v), σ_{t+1}(u)); v itself is the positive. Sources absent
// from either window are skipped. Score rows ride the pairwise engine.
func SelfRetrievalQueries(d core.Distance, at, next *core.SignatureSet) []Query {
	rows, cols := selfRetrievalRows(at, next)
	if len(rows) == 0 {
		return nil
	}
	eng, _ := distmat.NewEngine(at, next, d, 0)
	queries := make([]Query, len(rows))
	eng.Rows(rows, func(t int, row []float64) {
		q := Query{
			Scores:   append([]float64(nil), row...),
			Positive: make([]bool, next.Len()),
		}
		q.Positive[cols[t]] = true
		queries[t] = q
	})
	return queries
}

// SelfRetrievalAUC is the Figure 3 statistic: mean per-node AUC of the
// self-retrieval queries — MeanAUC(SelfRetrievalQueries(d, at, next))
// bit for bit, with no query materialised: each engine row is counted in
// the worker that computed it, over its candidates alone (selfAUC), its
// one positive the column of the row's source, and the per-row AUCs are
// summed in row order.
func SelfRetrievalAUC(d core.Distance, at, next *core.SignatureSet) (float64, error) {
	rows, cols := selfRetrievalRows(at, next)
	if len(rows) == 0 {
		return 0, fmt.Errorf("eval: no sources present in both windows")
	}
	eng, _ := distmat.NewEngine(at, next, d, 0)
	type rowAUC struct {
		auc float64
		err error
	}
	sum := 0.0
	var err error
	distmat.MapRows(eng, rows, func(t int, row distmat.Candidates) rowAUC {
		a, rowErr := selfAUC(row, cols[t], next.Len())
		return rowAUC{a, rowErr}
	}, func(t int, r rowAUC) {
		if err == nil && r.err != nil {
			err = fmt.Errorf("eval: query %d: %w", t, r.err)
		}
		sum += r.auc
	})
	if err != nil {
		return 0, err
	}
	return sum / float64(len(rows)), nil
}

// SetRetrievalQueries builds the §V multiusage ROC queries: for each
// query node v belonging to some ground-truth set S, candidates are all
// other sources in the same window, positives are the other members of
// S. (The paper ranks all of V including v itself; ranking the query
// against itself is a guaranteed hit at distance zero, so we exclude it
// — a strictly harder and more informative variant.)
func SetRetrievalQueries(d core.Distance, set *core.SignatureSet, groups [][]graph.NodeID) []Query {
	member := map[graph.NodeID]int{}
	for gi, g := range groups {
		for _, v := range g {
			member[v] = gi
		}
	}
	var rows []int
	for i, v := range set.Sources {
		if _, ok := member[v]; ok {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	var queries []Query
	eng, _ := distmat.NewEngine(set, set, d, 0)
	eng.Rows(rows, func(t int, row []float64) {
		v := set.Sources[rows[t]]
		gi := member[v]
		positives := 0
		q := Query{
			Scores:   make([]float64, 0, set.Len()-1),
			Positive: make([]bool, 0, set.Len()-1),
		}
		for j, u := range set.Sources {
			if u == v {
				continue
			}
			q.Scores = append(q.Scores, row[j])
			pos := false
			if gj, ok := member[u]; ok && gj == gi {
				pos = true
				positives++
			}
			q.Positive = append(q.Positive, pos)
		}
		if positives > 0 {
			queries = append(queries, q)
		}
	})
	return queries
}
