package core

import (
	"math"
	"slices"
)

// This file implements the distance kernels over the flat SoA view
// (FlatSigs, flat.go). Every distance in ExtendedDistances has the same
// shape: per-pair sums over the *shared* nodes only — a count (Jaccard),
// Σ(wa+wb) (Dice), the dot product (Cosine), Σ min(wa,wb) (ScaledDice,
// WeightedJaccard on normalized weights), or Σ √wa·√wb (see
// HellingerAffinity) beside Σ min (ScaledHellinger) — finished in O(1)
// against per-signature folds FlatSigs precomputes. The scaled kinds
// fit it through the identity Σ_union max(wa,wb) = Σwa + Σwb −
// Σ_shared min(wa,wb), which their naive Distance.Dist loops are
// defined by.
//
// Fold order: every weighted sum, shared or per-signature, adds its
// terms in ascending order of their values (AscendingSum). That order
// depends on nothing but the values: not on which signature is a and
// which is b, and not on the NodeIDs a process interned the labels as.
// A term is a symmetric function of the node's two weights, and every
// finish is commutative (Σa+Σb, ‖a‖·‖b‖, |a|+|b|−shared), so
// d(a,b) == d(b,a) bit for bit for every distance in ExtendedDistances
// — an all-pairs job over one set may compute each unordered pair once
// (distmat.MapTriangle) — and the same labels with the same weights are
// at the same distance in every process and universe. A signature's own
// sums fold its weights ascending too, so the shared sums of a
// signature against itself equal them term for term and it sits at
// distance exactly 0 from itself.
//
// Batch layers (internal/distmat) fold the shared sums while they
// enumerate an inverted index, in whatever order the postings come, and
// call ScatterFinish per candidate. Two terms add the same either way
// round, so a candidate sharing one or two nodes needs nothing more; of
// one sharing three or more (under 2 % of the sharing pairs of a
// typical window) the batch layer keeps the terms and sorts them
// (AscendingSum). The pointwise FlatDist learns the shared nodes by
// merging the two node-sorted segments (a match list), sorts each sum's
// terms, and finishes the same way, in O(k log k) per pair instead of
// the naive loops' O(k²) probing. A cold block (internal/segment) is
// scored where it lies: each row's shared nodes and canonical weights
// give Term's terms, sorted, and KernelKind.Folds, and Finish — the
// finish ScatterFinish calls — ends it.
//
// Bit-identity contract: for Validate-clean signatures, FlatDist(fa, i,
// fb, j), a scatter over signature i's entries finished by
// ScatterFinish and a block scan's row all return the exact same
// float64 as Distance.Dist on the two original signatures: the same
// terms in the same order, and one finish that replays the naive
// expressions verbatim against folds the naive loops' own fold
// functions compute (Folds). The naive Distance.Dist loops stay as the
// oracle the tests and the fuzz targets compare against. Positive weights are never NaN nor -0.0, so the
// builtin min equals the naive loops' math.Min.
//
// Disjoint closed form: when two Validate-clean signatures share no
// node, every distance in ExtendedDistances is exactly 1.0 (the shared
// sums are exactly +0.0 and the denominator is positive, so 1 − 0/den
// == 1.0 bit-for-bit), except that two empty signatures are at distance
// exactly 0.0; it holds where weights sum past the largest float64 too
// (normWeight). Batch layers (internal/distmat) and the cold block scan
// rely on this to resolve disjoint pairs in O(1) without touching a
// kernel.

// KernelKind identifies which of the six registered distances a
// DistKernel implements. Batch layers use it to pick what a posting
// scatter accumulates.
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

// match records one shared node found by FlatDist's merge: its
// canonical index in the two signatures being compared (A-side and
// B-side).
type match struct {
	A, B int32
}

// DistKernel computes distances between FlatSigs entries, bit-identical
// to the corresponding Distance.Dist. The zero value is a ready Jaccard
// kernel; Reset points it at another kind. It holds the merge's match
// list and the terms of a sum as scratch, so it is NOT safe for
// concurrent use: one kernel per goroutine.
type DistKernel struct {
	kind    KernelKind
	matches []match
	xs, ys  []float64 // the terms of a pair's two sums
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
	a, b := &fa.folds[i], &fb.folds[j]
	aw, bw := fa.Weights(i), fb.Weights(j)
	xs, ys := k.xs[:0], k.ys[:0]
	if k.kind != KindJaccard { // whose finish reads the count alone
		for _, m := range k.matches {
			x, y := k.kind.Term(aw[m.A], bw[m.B], a, b)
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	k.xs, k.ys = xs, ys
	return k.kind.Finish(a, b, int32(len(k.matches)), AscendingSum(xs), AscendingSum(ys))
}

// AscendingSum adds terms in ascending order of their values, sorting
// them in place: the one order that depends on the values alone, which
// every weighted sum of every distance folds in. The terms are never
// NaN.
func AscendingSum(terms []float64) float64 {
	if len(terms) > 16 {
		slices.Sort(terms)
	} else {
		for t := 1; t < len(terms); t++ { // a pair's few shared nodes
			x, u := terms[t], t
			for ; u > 0 && terms[u-1] > x; u-- {
				terms[u] = terms[u-1]
			}
			terms[u] = x
		}
	}
	sum := 0.0
	for _, x := range terms {
		sum += x
	}
	return sum
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
			k.matches = append(k.matches, match{A: ap[s], B: bp[t]})
			s++
			t++
		}
	}
}

// ScatterFinish is Finish between signature i of fa and signature j of
// fb: the finish a batch layer calls per candidate of a scatter.
func (k *DistKernel) ScatterFinish(fa *FlatSigs, i int, fb *FlatSigs, j int, cnt int32, num, mins float64) float64 {
	return k.kind.Finish(&fa.folds[i], &fb.folds[j], cnt, num, mins)
}

// Folds are one signature's own sums that a finish reads, each folded by
// the loops the naive Distance.Dist calls fold a signature with
// (weightSum, squareSum, normWeightSum): in ascending order of the
// weights, backwards through the canonical, weight-descending order.
type Folds struct {
	Len     int     // entry count
	Sum     float64 // Σw
	SumSq   float64 // Σw²
	Norm    float64 // √SumSq, Cosine's denominator factor
	NormSum float64 // Σ normWeight(w, Sum), WeightedJaccard's
}

// foldsOf returns every fold of a signature whose canonical weights are
// w.
func foldsOf(w []float64) Folds {
	sum, sq := weightSum(w), squareSum(w)
	return Folds{Len: len(w), Sum: sum, SumSq: sq, Norm: math.Sqrt(sq), NormSum: normWeightSum(w, sum)}
}

// Folds returns the folds of canonical weights w that kind reads (Term
// and Finish), the others left zero: what a scan that meets each
// signature once computes.
func (kind KernelKind) Folds(w []float64) Folds {
	f := Folds{Len: len(w)}
	switch kind {
	case KindJaccard:
	case KindCosine:
		f.SumSq = squareSum(w)
		f.Norm = math.Sqrt(f.SumSq)
	default:
		f.Sum = weightSum(w)
		if kind == KindWeightedJaccard {
			f.NormSum = normWeightSum(w, f.Sum)
		}
	}
	return f
}

// Term returns kind's terms for one node shared by two signatures of
// folds a and b, at weights wa and wb: x is added into Finish's num, y
// into its mins (ScaledHellinger's; 0 for the other kinds). The batch
// gathers in internal/distmat fold the same terms from precomputed
// square roots and normalized weights, which are these bit for bit.
func (kind KernelKind) Term(wa, wb float64, a, b *Folds) (x, y float64) {
	switch kind {
	case KindDice:
		return wa + wb, 0
	case KindCosine:
		return wa * wb, 0
	case KindScaledDice:
		return min(wa, wb), 0
	case KindWeightedJaccard:
		return min(normWeight(wa, a.Sum), normWeight(wb, b.Sum)), 0
	case KindScaledHellinger:
		return HellingerAffinity(wa, wb, math.Sqrt(wa), math.Sqrt(wb)), min(wa, wb)
	}
	return 0, 0
}

// Finish turns the shared-node sums of a signature of folds a against
// one of folds b into the distance, in O(1): cnt is the shared count;
// num is Σ(wa+wb) for Dice, the dot product for Cosine, Σ min(wa,wb)
// for ScaledDice (over normalized weights for WeightedJaccard) and
// Σ HellingerAffinity for ScaledHellinger, whose Σ min is mins (Term's
// x and y). Each sum must add its terms in ascending order
// (AscendingSum) — any order, for a pair sharing at most two nodes — and
// the two signatures must not both be empty; the result is then
// bit-identical to the kind's Distance.Dist.
func (kind KernelKind) Finish(a, b *Folds, cnt int32, num, mins float64) float64 {
	switch kind {
	case KindJaccard:
		union := a.Len + b.Len - int(cnt)
		if union == 0 {
			return 0
		}
		return 1 - float64(cnt)/float64(union)
	case KindDice:
		den := a.Sum + b.Sum
		if den == 0 {
			return 0
		}
		return clamp01(1 - num/den)
	case KindCosine:
		if a.SumSq == 0 || b.SumSq == 0 {
			return 1
		}
		return clamp01(1 - num/(a.Norm*b.Norm))
	case KindScaledDice:
		return scaledDist(num, a.Sum+b.Sum-num)
	case KindScaledHellinger:
		return scaledDist(num, a.Sum+b.Sum-mins)
	default:
		return scaledDist(num, a.NormSum+b.NormSum-num)
	}
}
