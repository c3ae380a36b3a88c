package apps

import (
	"fmt"
	"sort"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/graph"
)

// MasqueradeResult is the output of Algorithm 1: M, the labels judged
// not to be masquerading, and O_P, the estimated relabelling v → u
// (the individual behind v re-appeared as u).
type MasqueradeResult struct {
	NonSuspects map[graph.NodeID]bool
	Pairs       map[graph.NodeID]graph.NodeID
}

// DeltaFromSelfPersistence computes Algorithm 1's persistency threshold
//
//	δ = (Σ_v 1 − Dist(σ_t(v), σ_{t+1}(v))) / (c·|V|)
//
// i.e. the average self-similarity across time scaled down by c
// (the paper uses c ∈ {3,5,7}). Sources absent from the later window
// contribute persistence 0.
func DeltaFromSelfPersistence(d core.Distance, at, next *core.SignatureSet, c int) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("apps: delta scale c must be positive, got %d", c)
	}
	if at.Len() == 0 {
		return 0, fmt.Errorf("apps: no sources to compute delta over")
	}
	sum := 0.0
	eng := distmat.NewPointwise(at, next, d)
	for i, v := range at.Sources {
		if j, present := next.IndexOf(v); present { // absent: persistence 0
			sum += 1 - eng.Dist(i, j)
		}
	}
	return sum / (float64(c) * float64(at.Len())), nil
}

// DetectLabelMasquerading is Algorithm 1 (§V). For each source v:
// if v's self-persistence exceeds δ it joins M; otherwise v's cross
// persistence A[v,u] = 1 − Dist(σ_t(v), σ_{t+1}(u)) is ranked and v is
// paired with the most persistent u among v's top-ℓ whose own
// self-persistence A[u,u] ≤ δ (both labels look different from
// themselves but similar to each other); with no such u, v joins M.
// Self-persistences and the suspects' cross-persistence rows ride the
// pairwise engine.
func DetectLabelMasquerading(d core.Distance, at, next *core.SignatureSet, delta float64, ell int) (*MasqueradeResult, error) {
	if ell <= 0 {
		return nil, fmt.Errorf("apps: top-ℓ must be positive, got %d", ell)
	}
	res := &MasqueradeResult{
		NonSuspects: map[graph.NodeID]bool{},
		Pairs:       map[graph.NodeID]graph.NodeID{},
	}
	eng, _ := distmat.NewEngine(at, next, d, 0)
	// Self-persistence of every candidate u (sources of the later
	// window), used for the A[u,u] ≤ δ condition.
	selfP := make([]float64, next.Len())
	for j, u := range next.Sources {
		if i, ok := at.IndexOf(u); ok {
			selfP[j] = 1 - eng.Dist(i, j)
		}
	}

	type cand struct {
		idx int
		p   float64
	}
	// Partition sources into persistent labels (→ M immediately) and
	// suspects, whose full cross-persistence rows are needed.
	var suspects []int
	for i, v := range at.Sources {
		self := 0.0
		if j, ok := next.IndexOf(v); ok {
			self = 1 - eng.Dist(i, j)
		}
		if self > delta {
			res.NonSuspects[v] = true
			continue
		}
		suspects = append(suspects, i)
	}
	eng.Rows(suspects, func(t int, row []float64) {
		v := at.Sources[suspects[t]]
		cands := make([]cand, 0, next.Len())
		for j, u := range next.Sources {
			if u == v {
				continue
			}
			cands = append(cands, cand{idx: j, p: 1 - row[j]})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].p != cands[b].p {
				return cands[a].p > cands[b].p
			}
			return next.Sources[cands[a].idx] < next.Sources[cands[b].idx]
		})
		if len(cands) > ell {
			cands = cands[:ell]
		}
		for _, c := range cands {
			if selfP[c.idx] <= delta {
				res.Pairs[v] = next.Sources[c.idx]
				return
			}
		}
		res.NonSuspects[v] = true
	})
	return res, nil
}

// MasqueradeAccuracy computes the §V accuracy criterion
//
//	(|M ∩ (V−P)| + |O_P ∩ E_P|) / |V|
//
// over the evaluated node set all: the fraction of labels either
// correctly classified as non-suspects or correctly paired with their
// new label. truth maps v → u for every truly relabelled v (E_P).
func MasqueradeAccuracy(res *MasqueradeResult, truth map[graph.NodeID]graph.NodeID, all []graph.NodeID) (float64, error) {
	if len(all) == 0 {
		return 0, fmt.Errorf("apps: accuracy over empty node set")
	}
	correct := 0
	for _, v := range all {
		if u, masq := truth[v]; masq {
			if res.Pairs[v] == u {
				correct++
			}
		} else if res.NonSuspects[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(all)), nil
}
