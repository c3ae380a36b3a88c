// Package apps implements the paper's three signature applications:
// multiusage detection (§II-D, evaluated in §V), label-masquerading
// detection (Algorithm 1), and anomaly detection (§II-D).
package apps

import (
	"fmt"
	"sort"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/graph"
)

// SimilarPair is a candidate multiusage pair: two labels whose
// signatures within the same window are unusually similar.
type SimilarPair struct {
	A, B graph.NodeID
	Dist float64
}

// DetectMultiusage scans all unordered source pairs in one window and
// returns those with Dist ≤ threshold, sorted by ascending distance.
// High similarity within a window is the multiusage signal: one
// individual communicating from several connection points (§II-D).
//
// The scan rides the pairwise engine, in parallel across cores, with
// results bit-identical to the naive quadratic loop: for a registered
// distance and threshold < 1 only pairs sharing at least one signature
// node are ever compared (disjoint pairs sit at distance exactly 1).
func DetectMultiusage(d core.Distance, set *core.SignatureSet, threshold float64) ([]SimilarPair, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("apps: multiusage threshold %g outside [0,1]", threshold)
	}
	var out []SimilarPair
	eng, _ := distmat.NewEngine(set, set, d, 0)
	// PairsWithin already excludes empty signatures: a silent label
	// matches every other silent label at distance 0; such degenerate
	// pairs are not multiusage evidence.
	for _, p := range eng.PairsWithin(threshold) {
		out = append(out, SimilarPair{A: set.Sources[p.I], B: set.Sources[p.J], Dist: p.Dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}

// NearestNeighbors ranks the other sources by signature distance from
// v, returning the topN closest — the per-node view used to vet one
// suspicious label.
func NearestNeighbors(d core.Distance, set *core.SignatureSet, v graph.NodeID, topN int) ([]SimilarPair, error) {
	sig, ok := set.Get(v)
	if !ok {
		return nil, fmt.Errorf("apps: node %d has no signature in window %d", v, set.Window)
	}
	pairs := make([]SimilarPair, 0, set.Len()-1)
	q, _ := distmat.NewQuerier(d)
	defer q.Release()
	q.Neighbors(distmat.NewSetView(set), sig, 1, func(j int, dist float64) {
		if u := set.Sources[j]; u != v {
			pairs = append(pairs, SimilarPair{A: v, B: u, Dist: dist})
		}
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Dist != pairs[j].Dist {
			return pairs[i].Dist < pairs[j].Dist
		}
		return pairs[i].B < pairs[j].B
	})
	if topN < len(pairs) {
		pairs = pairs[:topN]
	}
	return pairs, nil
}
