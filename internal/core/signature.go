// Package core implements the paper's primary contribution: communication
// graph signatures (Definition 1), the example signature schemes of §III
// (Top Talkers, Unexpected Talkers, Random Walk with Resets and its
// hop-bounded variant), the four distance functions of §IV-B, and the
// exponential time-decay combination of historical windows mentioned in
// §III-A.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"graphsig/internal/graph"
)

// Signature is a communication-graph signature σ_t(v): the top-k nodes u
// by relevance w_vu, with their weights (Definition 1). Entries are
// sorted by weight descending, ties broken by NodeID ascending, making
// signatures canonical: two signatures with the same content compare
// equal entry-by-entry.
type Signature struct {
	Nodes   []graph.NodeID
	Weights []float64
}

// Len reports the number of entries (≤ k; fewer when the node has fewer
// than k non-zero relevance values).
func (s Signature) Len() int { return len(s.Nodes) }

// IsEmpty reports whether the signature has no entries.
func (s Signature) IsEmpty() bool { return len(s.Nodes) == 0 }

// Weight returns the weight of node u in the signature, or 0 when u is
// not a member. Linear scan: signatures are tiny (k ~ 3..10).
func (s Signature) Weight(u graph.NodeID) float64 {
	for i, n := range s.Nodes {
		if n == u {
			return s.Weights[i]
		}
	}
	return 0
}

// Contains reports whether u is a member.
func (s Signature) Contains(u graph.NodeID) bool {
	for _, n := range s.Nodes {
		if n == u {
			return true
		}
	}
	return false
}

// WeightSum returns the total weight of the signature.
func (s Signature) WeightSum() float64 {
	sum := 0.0
	for _, w := range s.Weights {
		sum += w
	}
	return sum
}

// Normalized returns a copy whose weights sum to 1 (or the signature
// itself when empty or massless).
func (s Signature) Normalized() Signature {
	sum := s.WeightSum()
	if sum <= 0 {
		return s
	}
	out := Signature{
		Nodes:   append([]graph.NodeID(nil), s.Nodes...),
		Weights: make([]float64, len(s.Weights)),
	}
	for i, w := range s.Weights {
		out.Weights[i] = w / sum
	}
	return out
}

// Equal reports exact equality of members and weights.
func (s Signature) Equal(t Signature) bool {
	if len(s.Nodes) != len(t.Nodes) {
		return false
	}
	for i := range s.Nodes {
		if s.Nodes[i] != t.Nodes[i] || s.Weights[i] != t.Weights[i] {
			return false
		}
	}
	return true
}

// String renders "{u:w, u:w, ...}" with NodeIDs.
func (s Signature) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range s.Nodes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", s.Nodes[i], s.Weights[i])
	}
	b.WriteByte('}')
	return b.String()
}

// validateScanMax is the largest signature Validate checks for repeats
// by scanning; longer ones get a map.
const validateScanMax = 32

// Validate checks the canonical-ordering and positivity invariants. It
// is used by property tests and by code paths that accept signatures
// from outside the package (e.g. deserialized ones).
func (s Signature) Validate() error {
	if len(s.Nodes) != len(s.Weights) {
		return fmt.Errorf("core: signature nodes/weights length mismatch %d/%d", len(s.Nodes), len(s.Weights))
	}
	// Repeats: a scan of the entries already checked at the k the schemes
	// produce (no allocation), a map past validateScanMax.
	var seen map[graph.NodeID]struct{}
	if len(s.Nodes) > validateScanMax {
		seen = make(map[graph.NodeID]struct{}, len(s.Nodes))
	}
	for i := range s.Nodes {
		w := s.Weights[i]
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: signature weight %d invalid (%g)", i, w)
		}
		if _, dup := seen[s.Nodes[i]]; dup || (seen == nil && slices.Contains(s.Nodes[:i], s.Nodes[i])) {
			return fmt.Errorf("core: signature repeats node %d", s.Nodes[i])
		}
		if seen != nil {
			seen[s.Nodes[i]] = struct{}{}
		}
		if i > 0 && w > s.Weights[i-1] {
			// Weight order is the invariant; the order among equal
			// weights is the producer's tie-break (NodeID for exact
			// extractors, stable label keys for streaming ones) and is
			// not re-checkable here, where labels are unknown.
			return fmt.Errorf("core: signature not in canonical order at entry %d", i)
		}
	}
	return nil
}

// FromWeights builds a canonical signature from a relevance map,
// keeping the k heaviest positive entries. It is the constructor used
// by external signature producers (the sketch-based streaming
// extractors, deserializers).
func FromWeights(weights map[graph.NodeID]float64, k int) Signature {
	cand := make([]entry, 0, len(weights))
	for u, w := range weights {
		if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
			cand = append(cand, entry{node: u, weight: w})
		}
	}
	return topK(cand, k)
}

// FromWeightsKeyed is FromWeights with the weight ties — both the
// selection cut at k and the final entry order — broken by key(node)
// instead of the NodeID. With a process-stable key (e.g.
// graph.HashLabel of the label) every process extracting from the same
// flows builds the same signature, member for member and slot for
// slot, regardless of its interning order; the cluster's shard/single
// bit-identity rests on this.
func FromWeightsKeyed(weights map[graph.NodeID]float64, k int, key func(graph.NodeID) uint64) Signature {
	cand := make([]KeyedEntry, 0, len(weights))
	for u, w := range weights {
		cand = append(cand, KeyedEntry{Node: u, Key: key(u), Weight: w})
	}
	return TopKKeyed(cand, k)
}

// KeyedEntry is one candidate of a keyed top-k selection: a node, the
// tie-breaking key its producer already holds for it, and its relevance.
type KeyedEntry struct {
	Node   graph.NodeID
	Key    uint64
	Weight float64
}

// TopKKeyed is the selection behind FromWeightsKeyed for a producer
// that holds its candidates as a list (one entry per node) with their
// keys: the k heaviest positive finite entries, heaviest first, ties by
// smaller key, then smaller NodeID. It reorders cand.
func TopKKeyed(cand []KeyedEntry, k int) Signature {
	cand = slices.DeleteFunc(cand, func(e KeyedEntry) bool {
		return !(e.Weight > 0) || math.IsInf(e.Weight, 1) // NaN fails the first test
	})
	slices.SortFunc(cand, func(a, b KeyedEntry) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		if a.Key != b.Key {
			return cmp.Compare(a.Key, b.Key)
		}
		return cmp.Compare(a.Node, b.Node) // 64-bit key collision: stay total
	})
	if k < len(cand) {
		cand = cand[:k]
	}
	sig := Signature{
		Nodes:   make([]graph.NodeID, len(cand)),
		Weights: make([]float64, len(cand)),
	}
	for i, e := range cand {
		sig.Nodes[i] = e.Node
		sig.Weights[i] = e.Weight
	}
	return sig
}

// entry is a candidate (node, weight) pair during top-k selection.
type entry struct {
	node   graph.NodeID
	weight float64
}

// topK selects the k heaviest entries, breaking weight ties by smaller
// NodeID first, and returns them in canonical order. It mutates cand.
func topK(cand []entry, k int) Signature {
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].weight != cand[j].weight {
			return cand[i].weight > cand[j].weight
		}
		return cand[i].node < cand[j].node
	})
	if k < len(cand) {
		cand = cand[:k]
	}
	sig := Signature{
		Nodes:   make([]graph.NodeID, len(cand)),
		Weights: make([]float64, len(cand)),
	}
	for i, e := range cand {
		sig.Nodes[i] = e.node
		sig.Weights[i] = e.weight
	}
	return sig
}
