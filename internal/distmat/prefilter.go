package distmat

import (
	"math"

	"graphsig/internal/core"
	"graphsig/internal/lsh"
)

// The mask prefilter: a conservative, no-false-rejection bound that
// lets thresholded jobs discard candidate pairs without running the
// exact kernel fold.
//
// Ingredients, all deterministic:
//
//   - lsh.Mask is a 128-bit one-hash Bloom signature of a node set.
//     Hash collisions only merge bits, so P = popcount(maskA | maskB)
//     is always ≤ |A ∪ B|: a provable lower bound on the union size.
//     By inclusion-exclusion, Imax = |A| + |B| − P is then a provable
//     upper bound on the intersection size |A ∩ B| (also clamped by
//     min(|A|, |B|)).
//
//   - core.FlatSigs stores inclusive prefix sums over the canonical
//     (weight-descending) entry order, so "the largest sum any m
//     weights of this signature can reach" is one array read:
//     TopWeightSum(i, m) — and likewise for normalized weights.
//
// Only the match-list kinds are bounded — ScaledDice, ScaledHellinger
// and WeightedJaccard: the Jaccard/Dice/Cosine scatter finish is O(1),
// cheaper than a bound (scratch.prefilters). Each of the three is
// 1 − sim with a similarity whose
// numerator folds only shared entries and is monotone in the shared
// set. Bounding the numerator from above with Imax and the top-Imax
// prefix sums, and the denominator from below with the exact per-
// signature folds, yields simUpper ≥ sim, hence 1 − simUpper ≤ dist:
// a lower bound on the distance. A candidate with
// distLowerBound > maxDist + prefilterSlack provably cannot qualify.
//
// prefilterSlack absorbs floating-point rounding: the bound arithmetic
// (a handful of additions, multiplications and one square root) and the
// kernel folds each carry relative error around 1e-15, so an absolute
// guard of 1e-9 on distances in [0, 1] is ~6 orders of magnitude wider
// than any achievable drift, while rejecting nothing a meaningful
// threshold comparison would keep. The property tests in
// prefilter_test.go check bound ≤ dist + prefilterSlack across the
// shared fuzz corpus and random sets for the three kinds.
const prefilterSlack = 1e-9

// distLowerBound returns a provable lower bound on the match-list kind's
// distance between signature qi of qf and signature j of cf, given
// their masks.
func distLowerBound(kind core.KernelKind, qf *core.FlatSigs, qi int, cf *core.FlatSigs, j int, qm, cm lsh.Mask) float64 {
	la, lb := qf.Len(qi), cf.Len(j)
	if la == 0 && lb == 0 {
		return 0 // every kernel pins the empty-vs-empty distance at 0
	}
	imax := la + lb - qm.UnionPop(cm)
	if la < lb {
		if imax > la {
			imax = la
		}
	} else if imax > lb {
		imax = lb
	}
	if imax < 0 {
		imax = 0
	}
	var simUpper float64
	switch kind {
	case core.KindScaledDice:
		den := fmax(qf.WeightSum(qi), cf.WeightSum(j))
		if den == 0 {
			return 0
		}
		// Σ min(wa, wb) over shared entries is at most the smaller of
		// the two top-Imax sums.
		simUpper = fmin(qf.TopWeightSum(qi, imax), cf.TopWeightSum(j, imax)) / den
	case core.KindScaledHellinger:
		den := fmax(qf.WeightSum(qi), cf.WeightSum(j))
		if den == 0 {
			return 0
		}
		// Cauchy–Schwarz: Σ√(wa·wb) ≤ √(Σwa · Σwb) over the shared
		// entries, each factor at most its side's top-Imax sum.
		simUpper = math.Sqrt(qf.TopWeightSum(qi, imax)*cf.TopWeightSum(j, imax)) / den
	default: // KindWeightedJaccard: ScaledDice over normalized weights
		den := fmax(qf.NormSum(qi), cf.NormSum(j))
		if den == 0 {
			return 0
		}
		simUpper = fmin(qf.TopNormSum(qi, imax), cf.TopNormSum(j, imax)) / den
	}
	if simUpper >= 1 {
		return 0
	}
	return 1 - simUpper
}

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
