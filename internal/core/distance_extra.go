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
// schemes emit unnormalized relevances (UT).
type Cosine struct{}

// Name implements Distance.
func (Cosine) Name() string { return "cosine" }

// Dist implements Distance.
func (Cosine) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i, u := range a.Nodes {
		wa := a.Weights[i]
		na += wa * wa
		if wb := b.Weight(u); wb > 0 {
			dot += wa * wb
		}
	}
	for _, wb := range b.Weights {
		nb += wb * wb
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return clamp01(1 - dot/(math.Sqrt(na)*math.Sqrt(nb)))
}

// WeightedJaccard is 1 − Σ min(w1j,w2j) / Σ max(w1j,w2j) computed on
// *normalized* signatures, i.e. the Ruzicka distance of the weight
// distributions. It is SDice made scale-free: two signatures with the
// same members and proportional weights are at distance 0. Like SDice
// it folds only the shared members (Σ max = Σw1 + Σw2 − Σ min).
type WeightedJaccard struct{}

// Name implements Distance.
func (WeightedJaccard) Name() string { return "wjaccard" }

// Dist implements Distance.
func (WeightedJaccard) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	na, nb := a.Normalized(), b.Normalized()
	mins := 0.0
	for i, u := range na.Nodes {
		if wb := nb.Weight(u); wb > 0 {
			mins += math.Min(na.Weights[i], wb)
		}
	}
	return scaledDist(mins, na.WeightSum()+nb.WeightSum()-mins)
}

// ExtendedDistances returns the paper's four distances plus the two
// extras, for experiment sweeps that want the wider menu.
func ExtendedDistances() []Distance {
	return append(AllDistances(), Cosine{}, WeightedJaccard{})
}
