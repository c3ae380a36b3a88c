package core

import "math"

// This file implements the distance kernels over the flat SoA view
// (FlatSigs, flat.go): a DistKernel computes every distance in
// ExtendedDistances in O(k) per pair by merging the two signatures'
// node-sorted segments, instead of the O(k²) Contains/Weight probing
// the naive Dist methods do. Batch layers (internal/distmat) that learn
// the shared entries from an inverted index skip the merge
// (FlatDistMatched), and for Jaccard/Dice/Cosine fold the numerator
// while they enumerate postings and only call ScatterFinish.
//
// Bit-identity contract: for Validate-clean signatures,
// FlatDist(fa, i, fb, j) returns the exact same float64 as
// Distance.Dist on the two original signatures. The kernels achieve
// this not by re-deriving the formulas but by replaying the naive
// accumulation order: the shared nodes are located first (recording,
// for each shared node, its canonical index on both sides); the
// numerator/denominator folds then run over the canonical
// (weight-descending) entry order exactly as the naive loops do, with
// the O(k) per-probe b.Weight(u)/b.Contains(u) lookups replaced by O(1)
// reads. The naive Distance.Dist loops stay as the oracle the tests and
// the fuzz target compare against.
//
// Two IEEE-754 facts let the folds skip work the naive loops do without
// changing a single output bit:
//
//   - x + (+0.0) == x for every x ≠ -0.0, and the numerator accumulators
//     only ever hold sums of non-negative terms starting from +0.0, so
//     the naive loops' zero terms for unshared nodes (min(w,0), √(w·0),
//     w·0) can be skipped outright. Jaccard, Dice and Cosine numerators
//     touch only shared nodes, making those kernels O(shared) per pair.
//   - max(w, 0) == w and positive weights are never NaN nor -0.0, so
//     math.Max/math.Min calls collapse to plain comparisons.
//
// Disjoint closed form: when two Validate-clean signatures share no
// node, every distance in ExtendedDistances is exactly 1.0 (the
// numerator folds over min(w,0)/√(w·0)/0-dot terms are exactly +0.0 and
// the denominator is positive, so 1 − 0/den == 1.0 bit-for-bit), except
// that two empty signatures are at distance exactly 0.0. Batch layers
// (internal/distmat) rely on this to resolve disjoint pairs in O(1)
// without touching a kernel.

// fmin and fmax are math.Min/math.Max restricted to the non-negative
// finite weights Validate-clean signatures carry (no NaN, no -0.0),
// where the special-case handling collapses to one comparison.
func fmin(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

func fmax(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// KernelKind identifies which of the six registered distances a
// DistKernel implements. Batch layers use it to pick a row strategy
// (count/sum/dot scatter vs full match lists) and the matching
// prefilter bound.
type KernelKind int

const (
	KindJaccard KernelKind = iota
	KindDice
	KindScaledDice
	KindScaledHellinger
	KindCosine
	KindWeightedJaccard
)

// KernelKindOf resolves d to its kernel kind, or false when d is not
// one of the registered distances (a custom Distance implementation):
// internal/distmat then fills every cell with d.Dist itself, assuming
// none of the closed forms above.
func KernelKindOf(d Distance) (KernelKind, bool) {
	switch d.(type) {
	case Jaccard:
		return KindJaccard, true
	case Dice:
		return KindDice, true
	case ScaledDice:
		return KindScaledDice, true
	case ScaledHellinger:
		return KindScaledHellinger, true
	case Cosine:
		return KindCosine, true
	case WeightedJaccard:
		return KindWeightedJaccard, true
	default:
		return 0, false
	}
}

// Match records one shared node: its canonical index in the two
// signatures being compared (A-side and B-side).
type Match struct {
	A, B int32
}

// DistKernel computes distances between FlatSigs entries in O(k) per
// pair — O(shared) for Jaccard/Dice/Cosine — bit-identical to the
// corresponding Distance.Dist. The zero value is a ready Jaccard
// kernel; Reset points it at another kind. It holds scratch state, so
// it is NOT safe for concurrent use: one kernel per goroutine.
type DistKernel struct {
	kind KernelKind
	// Scratch: matches lists the shared canonical index pairs found by
	// the merge; bsorted is the B side re-sorted ascending for the
	// b-side fold.
	matches []Match
	bsorted []int32
}

// Kind reports which registered distance the kernel implements.
func (k *DistKernel) Kind() KernelKind { return k.kind }

// Reset re-points the kernel at kind, keeping the grown scratch arrays —
// what pooled batch layers use to recycle kernels across jobs with no
// allocation.
func (k *DistKernel) Reset(kind KernelKind) { k.kind = kind }

// FlatDist computes the distance between signature i of fa and
// signature j of fb, bit-identical to the kind's Distance.Dist on the
// original signatures.
func (k *DistKernel) FlatDist(fa *FlatSigs, i int, fb *FlatSigs, j int) float64 {
	if fa.IsEmpty(i) && fb.IsEmpty(j) {
		return 0
	}
	k.mergeFlat(fa, i, fb, j)
	k.sortMatchesByA()
	return k.flatMatched(fa, i, fb, j, k.matches)
}

// FlatDistMatched computes the distance given the precomputed
// shared-node match list: one Match per node the two signatures share,
// holding its canonical index in signature i of fa (A) and in signature
// j of fb (B), with the A side ASCENDING (i.e. matches listed in a's
// canonical order — what an inverted-index walk of a's entries produces
// naturally). Batch layers that already know the shared nodes use this
// entry point to skip the merge. Bit-identical to FlatDist.
func (k *DistKernel) FlatDistMatched(fa *FlatSigs, i int, fb *FlatSigs, j int, matches []Match) float64 {
	if fa.IsEmpty(i) && fb.IsEmpty(j) {
		return 0
	}
	return k.flatMatched(fa, i, fb, j, matches)
}

// mergeFlat walks the two node-sorted segments recording, for every
// shared node, its canonical index on both sides.
func (k *DistKernel) mergeFlat(fa *FlatSigs, i int, fb *FlatSigs, j int) {
	k.matches = k.matches[:0]
	an, ap := fa.SortedNodes(i), fa.Pos(i)
	bn, bp := fb.SortedNodes(j), fb.Pos(j)
	s, t := 0, 0
	for s < len(an) && t < len(bn) {
		switch {
		case an[s] < bn[t]:
			s++
		case an[s] > bn[t]:
			t++
		default:
			k.matches = append(k.matches, Match{A: ap[s], B: bp[t]})
			s++
			t++
		}
	}
}

func (k *DistKernel) flatMatched(fa *FlatSigs, i int, fb *FlatSigs, j int, matches []Match) float64 {
	switch k.kind {
	case KindJaccard:
		return jaccardCount(fa.Len(i), fb.Len(j), len(matches))
	case KindDice:
		return diceFold(fa.Weights(i), fb.Weights(j), fa.sum[i], fb.sum[j], matches)
	case KindScaledDice:
		return k.scaledFold(fa.Weights(i), fb.Weights(j), matches, false)
	case KindScaledHellinger:
		return k.scaledFold(fa.Weights(i), fb.Weights(j), matches, true)
	case KindCosine:
		return cosineFold(fa.Weights(i), fb.Weights(j), fa.sumSq[i], fb.sumSq[j], fa.norm[i], fb.norm[j], matches)
	default:
		return k.scaledFold(fa.NormWeights(i), fb.NormWeights(j), matches, false)
	}
}

// ScatterFinish turns a row-scatter accumulator into the final
// distance for the kinds whose numerator is a plain per-shared-entry
// sum: the shared count for Jaccard, Σ(wa+wb) for Dice, the dot product
// for Cosine. The accumulator must have been folded in signature i's
// canonical entry order (what a posting scatter over i's entries
// produces), so the result is bit-identical to FlatDist. Panics for the
// scaled kinds — they need the full match list.
func (k *DistKernel) ScatterFinish(fa *FlatSigs, i int, fb *FlatSigs, j int, cnt int32, acc float64) float64 {
	switch k.kind {
	case KindJaccard:
		return jaccardCount(fa.Len(i), fb.Len(j), int(cnt))
	case KindDice:
		den := fa.sum[i] + fb.sum[j]
		if den == 0 {
			return 0
		}
		return clamp01(1 - acc/den)
	case KindCosine:
		if fa.sumSq[i] == 0 || fb.sumSq[j] == 0 {
			return 1
		}
		return clamp01(1 - acc/(fa.norm[i]*fb.norm[j]))
	default:
		panic("core: ScatterFinish on a non-scatter kernel kind")
	}
}

// sortMatchesByA reorders the matches into ascending A — the merge
// emits them in node order, the folds consume them in a's canonical
// order. Shared counts are tiny; insertion sort.
func (k *DistKernel) sortMatchesByA() {
	ms := k.matches
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && ms[j].A > m.A {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
}

// sortBAscending copies the matches' B side into the bsorted scratch in
// ascending order, for the b-side unshared fold. Shared counts are
// tiny; insertion sort.
func (k *DistKernel) sortBAscending(matches []Match) []int32 {
	if cap(k.bsorted) < len(matches) {
		k.bsorted = make([]int32, len(matches))
	}
	bs := k.bsorted[:len(matches)]
	for i, m := range matches {
		bj := m.B
		j := i - 1
		for j >= 0 && bs[j] > bj {
			bs[j+1] = bs[j]
			j--
		}
		bs[j+1] = bj
	}
	return bs
}

// jaccardCount: the numerator is the shared-node count and the naive
// division is replayed verbatim, so the whole distance is O(1) given
// the match count.
func jaccardCount(la, lb, inter int) float64 {
	union := la + lb - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// diceFold: the naive numerator adds wa+wb for exactly the shared
// entries in a's canonical order — the matched list verbatim — and the
// denominator is the two precomputed canonical-order weight sums.
func diceFold(aw, bwgt []float64, asum, bsum float64, matches []Match) float64 {
	num := 0.0
	for _, m := range matches {
		num += aw[m.A] + bwgt[m.B]
	}
	den := asum + bsum
	if den == 0 {
		return 0
	}
	return clamp01(1 - num/den)
}

// scaledMinMax is the shared fold of ScaledDice/ScaledHellinger/
// WeightedJaccard: numerator over the shared entries in a's canonical
// order (the naive loops' unshared terms are exact +0.0s, see the file
// comment), denominator interleaving max(wa,wb) and unshared-wa terms
// in a's canonical order followed by b's unshared remainder in b's
// canonical order. The match list's A side must be ascending; the b
// remainder walks the B side re-sorted ascending, so no scatter arrays
// are touched at all.
func (k *DistKernel) scaledMinMax(aw, bwgt []float64, matches []Match, hellinger bool) (num, den float64) {
	t := 0
	for i, wa := range aw {
		if t < len(matches) && matches[t].A == int32(i) {
			wb := bwgt[matches[t].B]
			if hellinger {
				num += math.Sqrt(wa * wb)
			} else {
				num += fmin(wa, wb)
			}
			den += fmax(wa, wb)
			t++
		} else {
			den += wa // == math.Max(wa, 0) for the positive weights
		}
	}
	bs := k.sortBAscending(matches)
	t = 0
	for j, wb := range bwgt {
		if t < len(bs) && bs[t] == int32(j) {
			t++
			continue
		}
		den += wb
	}
	return num, den
}

// scaledFold computes SDice (hellinger=false), SHel (hellinger=true)
// and — fed the normalized weights — WeightedJaccard, which all share
// the min/max-denominator structure.
func (k *DistKernel) scaledFold(aw, bwgt []float64, matches []Match, hellinger bool) float64 {
	num, den := k.scaledMinMax(aw, bwgt, matches, hellinger)
	if den == 0 {
		return 0
	}
	return clamp01(1 - num/den)
}

// cosineFold: the naive dot accumulates shared entries in a's canonical
// order (unshared terms are skipped by its wb > 0 branch); the norms
// are the canonical-order sumSq folds and their precomputed roots.
func cosineFold(aw, bwgt []float64, asumSq, bsumSq, anorm, bnorm float64, matches []Match) float64 {
	dot := 0.0
	for _, m := range matches {
		dot += aw[m.A] * bwgt[m.B]
	}
	if asumSq == 0 || bsumSq == 0 {
		return 1
	}
	return clamp01(1 - dot/(anorm*bnorm))
}
