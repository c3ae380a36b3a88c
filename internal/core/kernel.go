package core

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
// Batch layers (internal/distmat) fold those sums while they enumerate
// an inverted index and call ScatterFinish per candidate. The pointwise
// FlatDist learns the shared nodes by merging the two node-sorted
// segments (a match list), folds the same sums and finishes the same
// way, in O(k) per pair instead of the naive loops' O(k²) probing.
//
// Bit-identity contract: for Validate-clean signatures, FlatDist(fa, i,
// fb, j) and a scatter over signature i's entries finished by
// ScatterFinish both return the exact same float64 as Distance.Dist on
// the two original signatures. The sums run over the shared nodes in
// a's canonical (weight-descending) order — the naive loops' order, and
// the order a posting scatter over a's entries produces — and the
// finishes replay the naive expressions verbatim against folds that are
// bit-equal to the naive ones (flat.go). The naive Distance.Dist loops
// stay as the oracle the tests and the fuzz target compare against.
// Positive weights are never NaN nor -0.0, so the builtin min equals
// the naive loops' math.Min.
//
// Disjoint closed form: when two Validate-clean signatures share no
// node, every distance in ExtendedDistances is exactly 1.0 (the shared
// sums are exactly +0.0 and the denominator is positive, so 1 − 0/den
// == 1.0 bit-for-bit), except that two empty signatures are at distance
// exactly 0.0. Batch layers (internal/distmat) rely on this to resolve
// disjoint pairs in O(1) without touching a kernel.

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

// DistKernel computes distances between FlatSigs entries in O(k) per
// pair, bit-identical to the corresponding Distance.Dist. The zero value
// is a ready Jaccard kernel; Reset points it at another kind. It holds
// the merge's match list as scratch, so it is NOT safe for concurrent
// use: one kernel per goroutine.
type DistKernel struct {
	kind    KernelKind
	matches []match
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
	var num, mins float64
	ms := k.matches
	switch k.kind {
	case KindDice:
		aw, bw := fa.Weights(i), fb.Weights(j)
		for _, m := range ms {
			num += aw[m.A] + bw[m.B]
		}
	case KindCosine:
		aw, bw := fa.Weights(i), fb.Weights(j)
		for _, m := range ms {
			num += aw[m.A] * bw[m.B]
		}
	case KindScaledDice:
		aw, bw := fa.Weights(i), fb.Weights(j)
		for _, m := range ms {
			num += min(aw[m.A], bw[m.B])
		}
	case KindWeightedJaccard:
		aw, bw := fa.NormWeights(i), fb.NormWeights(j)
		for _, m := range ms {
			num += min(aw[m.A], bw[m.B])
		}
	case KindScaledHellinger:
		aw, bw := fa.Weights(i), fb.Weights(j)
		as, bs := fa.SqrtWeights(i), fb.SqrtWeights(j)
		for _, m := range ms {
			num += HellingerAffinity(aw[m.A], bw[m.B], as[m.A], bs[m.B])
			mins += min(aw[m.A], bw[m.B])
		}
	}
	return k.ScatterFinish(fa, i, fb, j, int32(len(ms)), num, mins)
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

// ScatterFinish turns the shared-node sums of signature i of fa against
// signature j of fb into the distance, in O(1): cnt is the shared count
// (Jaccard); num is Σ(wa+wb) for Dice, the dot product for Cosine,
// Σ min(wa,wb) for ScaledDice (over normalized weights for
// WeightedJaccard) and Σ HellingerAffinity for ScaledHellinger, whose
// Σ min is mins. Each sum must have been folded in signature i's
// canonical entry order (what a posting scatter over i's entries
// produces), and the two signatures must not both be empty; the result
// is then bit-identical to the kind's Distance.Dist.
func (k *DistKernel) ScatterFinish(fa *FlatSigs, i int, fb *FlatSigs, j int, cnt int32, num, mins float64) float64 {
	switch k.kind {
	case KindJaccard:
		union := fa.Len(i) + fb.Len(j) - int(cnt)
		if union == 0 {
			return 0
		}
		return 1 - float64(cnt)/float64(union)
	case KindDice:
		den := fa.sum[i] + fb.sum[j]
		if den == 0 {
			return 0
		}
		return clamp01(1 - num/den)
	case KindCosine:
		if fa.sumSq[i] == 0 || fb.sumSq[j] == 0 {
			return 1
		}
		return clamp01(1 - num/(fa.norm[i]*fb.norm[j]))
	case KindScaledDice:
		return scaledDist(num, fa.sum[i]+fb.sum[j]-num)
	case KindScaledHellinger:
		return scaledDist(num, fa.sum[i]+fb.sum[j]-mins)
	default:
		return scaledDist(num, fa.normSum[i]+fb.normSum[j]-num)
	}
}
