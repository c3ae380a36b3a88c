package apps

import (
	"fmt"
	"sort"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/graph"
)

// Match is one de-anonymization assignment: the anonymized node is
// claimed to be the reference individual, at the given signature
// distance.
type Match struct {
	Anonymized graph.NodeID
	Reference  graph.NodeID
	Dist       float64
}

// DeAnonymize attacks an anonymized communication graph with outside
// information, the paper's §I third application (author identification
// from citation signatures [11] is the canonical instance): given
// reference signatures of known individuals from an earlier window and
// signatures computed on the anonymized window, each anonymized node is
// matched to its nearest reference signature. The anonymized×reference
// distance rows ride the pairwise engine.
//
// When greedy is true, assignments are made in order of increasing
// distance with each reference used at most once (appropriate when the
// hidden mapping is known to be injective, as in a wholesale
// re-labelling); otherwise every anonymized node independently takes
// its nearest reference.
func DeAnonymize(d core.Distance, reference, anonymized *core.SignatureSet, greedy bool) ([]Match, error) {
	if reference.Len() == 0 || anonymized.Len() == 0 {
		return nil, fmt.Errorf("apps: deanonymize needs non-empty signature sets")
	}
	eng, _ := distmat.NewEngine(anonymized, reference, d, 0)
	all := rowIndices(anonymized.Len())
	if !greedy {
		out := make([]Match, 0, anonymized.Len())
		eng.Rows(all, func(i int, row []float64) {
			best := Match{Anonymized: anonymized.Sources[i], Dist: 2}
			for j, r := range reference.Sources {
				if dj := row[j]; dj < best.Dist || (dj == best.Dist && r < best.Reference) {
					best.Reference = r
					best.Dist = dj
				}
			}
			out = append(out, best)
		})
		sortMatches(out)
		return out, nil
	}
	// Greedy injective assignment over all pairs, cheapest first.
	type cand struct {
		ai, rj int
		dist   float64
	}
	cands := make([]cand, 0, anonymized.Len()*reference.Len())
	eng.Rows(all, func(i int, row []float64) {
		for j, dist := range row {
			cands = append(cands, cand{i, j, dist})
		}
	})
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].dist != cands[y].dist {
			return cands[x].dist < cands[y].dist
		}
		if cands[x].ai != cands[y].ai {
			return cands[x].ai < cands[y].ai
		}
		return cands[x].rj < cands[y].rj
	})
	usedA := make([]bool, anonymized.Len())
	usedR := make([]bool, reference.Len())
	var out []Match
	for _, c := range cands {
		if usedA[c.ai] || usedR[c.rj] {
			continue
		}
		usedA[c.ai] = true
		usedR[c.rj] = true
		out = append(out, Match{
			Anonymized: anonymized.Sources[c.ai],
			Reference:  reference.Sources[c.rj],
			Dist:       c.dist,
		})
		if len(out) == anonymized.Len() || len(out) == reference.Len() {
			break
		}
	}
	sortMatches(out)
	return out, nil
}

// rowIndices returns [0, 1, ..., n-1].
func rowIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dist != ms[j].Dist {
			return ms[i].Dist < ms[j].Dist
		}
		return ms[i].Anonymized < ms[j].Anonymized
	})
}

// DeAnonymizationAccuracy scores matches against the true mapping
// anonymized → reference.
func DeAnonymizationAccuracy(matches []Match, truth map[graph.NodeID]graph.NodeID) (float64, error) {
	if len(truth) == 0 {
		return 0, fmt.Errorf("apps: empty ground truth")
	}
	correct := 0
	for _, m := range matches {
		if truth[m.Anonymized] == m.Reference {
			correct++
		}
	}
	return float64(correct) / float64(len(truth)), nil
}
