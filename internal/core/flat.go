package core

import (
	"math"

	"graphsig/internal/graph"
)

// This file implements the structure-of-arrays (SoA) view of a slice of
// signatures: every per-signature array (canonical nodes, weights,
// node-sorted order, normalized weights, square-rooted weights) lives in
// one contiguous allocation for the whole set, addressed through a shared
// offset table. Batch layers (internal/distmat) iterate these arrays
// directly, so an all-pairs job walks a handful of flat slices instead
// of chasing one Signature header pair per comparison.
//
// Bit-identity: the per-signature folds are foldsOf, the very loops the
// naive Distance.Dist calls fold each signature with (kernel.go), the
// normalized weights are normWeight's, and the square roots are
// math.Sqrt of each weight, the factor ScaledHellinger.Dist takes, so
// the kernels in kernel.go that read them reproduce the naive results
// bit-for-bit.

// FlatSigs is the SoA view of a signature slice. Build it with
// NewFlatSigs (or recycle one with Reset — zero allocations once the
// backing arrays have grown to fit). The view is immutable between
// Resets; the accessor slices alias the backing arrays and must not be
// mutated by callers.
type FlatSigs struct {
	offs   []int32        // len n+1; entries of sig i live at [offs[i], offs[i+1])
	nodes  []graph.NodeID // canonical (weight-descending) node order
	w      []float64      // canonical weights
	sorted []graph.NodeID // nodes re-sorted ascending, per signature
	pos    []int32        // pos[t] = canonical index (within the sig) of sorted[t]
	normW  []float64      // w / sum in canonical order
	sqrtW  []float64      // math.Sqrt of w, ScaledHellinger's factors

	folds []Folds // per-sig ascending folds of w (foldsOf)
}

// NewFlatSigs builds the SoA view of sigs. Each signature must be
// Validate-clean: nodes unique, canonical order.
func NewFlatSigs(sigs []Signature) *FlatSigs {
	f := &FlatSigs{}
	f.Reset(sigs)
	return f
}

// growTo returns s resized to length n, reusing its backing array when
// capacity allows — the Reset path's no-allocation guarantee.
func growTo[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Reset rebuilds the view over sigs in place, reusing every backing
// array whose capacity suffices. A FlatSigs cycled through same-shape
// inputs allocates nothing — the property the query path in
// internal/distmat relies on.
func (f *FlatSigs) Reset(sigs []Signature) {
	n := len(sigs)
	total := 0
	for i := range sigs {
		total += len(sigs[i].Nodes)
	}
	f.offs = growTo(f.offs, n+1)
	f.nodes = growTo(f.nodes, total)
	f.w = growTo(f.w, total)
	f.sorted = growTo(f.sorted, total)
	f.pos = growTo(f.pos, total)
	f.normW = growTo(f.normW, total)
	f.sqrtW = growTo(f.sqrtW, total)
	f.folds = growTo(f.folds, n)

	off := int32(0)
	for i := range sigs {
		f.offs[i] = off
		off += int32(len(sigs[i].Nodes))
		f.fill(i, sigs[i])
	}
	f.offs[n] = off
}

// insertionSortCutoff bounds the signature size the node sort handles
// with a branch-light insertion sort; larger signatures (rare — k is
// typically ≤ 40) fall back to a heapsort. Both produce the one
// ascending order of the unique nodes.
const insertionSortCutoff = 48

// fill populates signature i's segment of every flat array: the
// canonical copy, the ascending node order with its permutation back to
// canonical indices, the folds, the square roots and the normalized
// weights.
func (f *FlatSigs) fill(i int, s Signature) {
	lo := int(f.offs[i])
	k := len(s.Nodes)
	nodes := f.nodes[lo : lo+k]
	w := f.w[lo : lo+k]
	copy(nodes, s.Nodes)
	copy(w, s.Weights)

	pos := f.pos[lo : lo+k]
	for t := range pos {
		pos[t] = int32(t)
	}
	if k <= insertionSortCutoff {
		for t := 1; t < k; t++ {
			p := pos[t]
			key := s.Nodes[p]
			j := t - 1
			for j >= 0 && s.Nodes[pos[j]] > key {
				pos[j+1] = pos[j]
				j--
			}
			pos[j+1] = p
		}
	} else {
		sortPosByNode(pos, s.Nodes)
	}
	srt := f.sorted[lo : lo+k]
	for t, p := range pos {
		srt[t] = s.Nodes[p]
	}

	f.folds[i] = foldsOf(w)
	for t, wv := range w {
		f.sqrtW[lo+t] = math.Sqrt(wv)
		f.normW[lo+t] = normWeight(wv, f.folds[i].Sum)
	}
}

// sortPosByNode sorts pos so that nodes[pos[t]] ascends, for the rare
// signatures above the insertion-sort cutoff. Plain heapsort: no
// allocation, and the cutoff means it never runs on the hot sizes.
func sortPosByNode(pos []int32, nodes []graph.NodeID) {
	n := len(pos)
	less := func(a, b int32) bool { return nodes[a] < nodes[b] }
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && less(pos[child], pos[child+1]) {
				child++
			}
			if !less(pos[root], pos[child]) {
				return
			}
			pos[root], pos[child] = pos[child], pos[root]
			root = child
		}
	}
	for root := n/2 - 1; root >= 0; root-- {
		siftDown(root, n)
	}
	for end := n - 1; end > 0; end-- {
		pos[0], pos[end] = pos[end], pos[0]
		siftDown(0, end)
	}
}

// NumSigs reports the number of signatures in the view.
func (f *FlatSigs) NumSigs() int { return len(f.offs) - 1 }

// Len reports the entry count of signature i.
func (f *FlatSigs) Len(i int) int { return int(f.offs[i+1] - f.offs[i]) }

// IsEmpty reports whether signature i has no entries.
func (f *FlatSigs) IsEmpty(i int) bool { return f.offs[i+1] == f.offs[i] }

// Nodes returns signature i's nodes in canonical order.
func (f *FlatSigs) Nodes(i int) []graph.NodeID { return f.nodes[f.offs[i]:f.offs[i+1]] }

// Weights returns signature i's weights in canonical order.
func (f *FlatSigs) Weights(i int) []float64 { return f.w[f.offs[i]:f.offs[i+1]] }

// NormWeights returns signature i's weights divided by their sum, in
// canonical order (raw weights when the signature is massless, as
// Signature.Normalized keeps them).
func (f *FlatSigs) NormWeights(i int) []float64 { return f.normW[f.offs[i]:f.offs[i+1]] }

// SqrtWeights returns math.Sqrt of signature i's weights in canonical
// order.
func (f *FlatSigs) SqrtWeights(i int) []float64 { return f.sqrtW[f.offs[i]:f.offs[i+1]] }

// SortedNodes returns signature i's nodes in ascending order.
func (f *FlatSigs) SortedNodes(i int) []graph.NodeID { return f.sorted[f.offs[i]:f.offs[i+1]] }

// Pos returns, for each entry of SortedNodes(i), its canonical index
// within signature i.
func (f *FlatSigs) Pos(i int) []int32 { return f.pos[f.offs[i]:f.offs[i+1]] }

// RawOffs and the Raw*Weights accessors expose the flat backing arrays
// for batch layers whose inner loops index entries globally (offset
// table + flat array) rather than per signature. Read-only: callers must
// not mutate them.
func (f *FlatSigs) RawOffs() []int32 { return f.offs }

// RawWeights returns the flat canonical-order weight array.
func (f *FlatSigs) RawWeights() []float64 { return f.w }

// RawNormWeights returns the flat canonical-order normalized weights.
func (f *FlatSigs) RawNormWeights() []float64 { return f.normW }

// RawSqrtWeights returns the flat canonical-order square-rooted weights.
func (f *FlatSigs) RawSqrtWeights() []float64 { return f.sqrtW }
