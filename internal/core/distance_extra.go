package core

import "math"

// Extra distance functions beyond the paper's four. The paper notes its
// choices were "chosen based on their simplicity and naturalness,
// though other functions are certainly suitable" (§IV-B footnote);
// these two are the most common alternatives in the signature
// literature and slot into every evaluator unchanged.

// Cosine is 1 − the cosine similarity of the signatures viewed as
// sparse weight vectors. Unlike the Dice family it is insensitive to
// overall weight scale, which matters when comparing signatures whose
// schemes emit unnormalized relevances (UT). The dot product and both
// squared norms add their terms in ascending order, as every registered
// distance does (kernel.go), so it is exactly symmetric.
type Cosine struct{}

// Name implements Distance.
func (Cosine) Name() string { return "cosine" }

// Dist implements Distance.
func (Cosine) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	dot := sharedSum(a, b, func(wa, wb float64) float64 { return wa * wb })
	na, nb := squareSum(a.Weights), squareSum(b.Weights)
	if na == 0 || nb == 0 {
		return 1
	}
	return clamp01(1 - dot/(math.Sqrt(na)*math.Sqrt(nb)))
}

// WeightedJaccard is 1 − Σ min(w1j,w2j) / Σ max(w1j,w2j) computed on
// *normalized* signatures, i.e. the Ruzicka distance of the weight
// distributions. It is SDice made scale-free: two signatures with the
// same members and proportional weights are at distance 0. Like SDice
// it folds only the shared members (Σ max = Σw1 + Σw2 − Σ min), every
// sum in ascending order of its terms, scaling each weight by the
// signature's weightSum rather than building normalized copies.
type WeightedJaccard struct{}

// Name implements Distance.
func (WeightedJaccard) Name() string { return "wjaccard" }

// Dist implements Distance.
func (WeightedJaccard) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	sa, sb := weightSum(a.Weights), weightSum(b.Weights)
	mins := sharedSum(a, b, func(wa, wb float64) float64 { return math.Min(normWeight(wa, sa), normWeight(wb, sb)) })
	return scaledDist(mins, normWeightSum(a.Weights, sa)+normWeightSum(b.Weights, sb)-mins)
}

// normWeight is weight w of a signature whose weights sum to sum,
// normalized; like Normalized, a massless signature keeps its raw
// weights, and so does one whose sum overflows: normalized to zeros, two
// such signatures sharing no node would lie at 0, not at the 1 every
// disjoint pair lies at (kernel.go).
func normWeight(w, sum float64) float64 {
	if sum <= 0 || math.IsInf(sum, 1) {
		return w
	}
	return w / sum
}

// normWeightSum is the sum of canonical weights w normalized, in
// ascending order, given their weight sum.
func normWeightSum(w []float64, sum float64) float64 {
	total := 0.0
	for t := len(w) - 1; t >= 0; t-- {
		total += normWeight(w[t], sum)
	}
	return total
}

// squareSum is the sum of canonical weights w squared, in ascending
// order.
func squareSum(w []float64) float64 {
	total := 0.0
	for t := len(w) - 1; t >= 0; t-- {
		total += w[t] * w[t]
	}
	return total
}

// ExtendedDistances returns the paper's four distances plus the two
// extras, for experiment sweeps that want the wider menu.
func ExtendedDistances() []Distance {
	return append(AllDistances(), Cosine{}, WeightedJaccard{})
}
