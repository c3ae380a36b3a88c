package core

import "math"

// Distance compares two signatures, returning a value in [0, 1]: 0 for
// identical signatures, 1 for disjoint ones (§IV-B). Two empty
// signatures are at distance 0 (an individual who communicated with
// nobody in both windows behaved identically); an empty versus a
// non-empty signature is at distance 1.
type Distance interface {
	// Name is a short stable identifier ("jaccard", "dice", ...).
	Name() string
	// Dist computes the distance between a and b.
	Dist(a, b Signature) float64
}

// Jaccard is Dist_Jac: 1 − |S1∩S2| / |S1∪S2|, ignoring weights.
type Jaccard struct{}

// Name implements Distance.
func (Jaccard) Name() string { return "jaccard" }

// Dist implements Distance.
func (Jaccard) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	inter := 0
	for _, u := range a.Nodes {
		if b.Contains(u) {
			inter++
		}
	}
	union := len(a.Nodes) + len(b.Nodes) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Dice is Dist_Dice, the weighted extension of the Dice criterion:
// 1 − Σ_{j∈S1∩S2}(w1j+w2j) / Σ_{j∈S1∪S2}(w1j+w2j). Nodes absent from a
// signature contribute weight 0, so the denominator is the total weight
// of both signatures. Every sum adds its terms in ascending order of
// their values (sharedSum, weightSum): the batch kernels' order, which
// makes the distance exactly symmetric and independent of how labels
// were interned (kernel.go).
type Dice struct{}

// Name implements Distance.
func (Dice) Name() string { return "dice" }

// Dist implements Distance.
func (Dice) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	num := sharedSum(a, b, func(wa, wb float64) float64 { return wa + wb })
	den := weightSum(a.Weights) + weightSum(b.Weights)
	if den == 0 {
		return 0
	}
	return clamp01(1 - num/den)
}

// ScaledDice is Dist_SDice: 1 − Σ min(w1j,w2j) / Σ max(w1j,w2j) over the
// union. It rewards signatures whose common members carry *similar*
// weights, not just overlapping membership.
//
// The denominator is computed in closed form: over the union, Σ max =
// Σw1 + Σw2 − Σ_{j∈S1∩S2} min(w1j,w2j), so both sums fold only the
// shared members. Every sum adds its terms in ascending order of their
// values (sharedSum, weightSum), which keeps the batch kernels
// (kernel.go) bit-identical to this loop and the distance exactly
// symmetric.
type ScaledDice struct{}

// Name implements Distance.
func (ScaledDice) Name() string { return "sdice" }

// Dist implements Distance.
func (ScaledDice) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	mins := sharedSum(a, b, math.Min)
	return scaledDist(mins, weightSum(a.Weights)+weightSum(b.Weights)-mins)
}

// ScaledHellinger is Dist_SHel: 1 − Σ √(w1j·w2j) / Σ max(w1j,w2j). The
// geometric-mean numerator (after the Hellinger affinity) softens
// SDice's min, which over-penalizes unequal weights on common members.
// The numerator folds √w1j·√w2j (HellingerAffinity) and the denominator
// is ScaledDice's closed form, every sum in ascending order of its
// terms, so the distance is exactly symmetric and the kernels
// bit-identical.
type ScaledHellinger struct{}

// Name implements Distance.
func (ScaledHellinger) Name() string { return "shel" }

// Dist implements Distance.
func (ScaledHellinger) Dist(a, b Signature) float64 {
	if a.IsEmpty() && b.IsEmpty() {
		return 0
	}
	num := sharedSum(a, b, func(wa, wb float64) float64 {
		return HellingerAffinity(wa, wb, math.Sqrt(wa), math.Sqrt(wb))
	})
	mins := sharedSum(a, b, math.Min)
	return scaledDist(num, weightSum(a.Weights)+weightSum(b.Weights)-mins)
}

// HellingerAffinity is ScaledHellinger's term for one shared node:
// √wa·√wb, given the two square roots ra and rb, and exactly wa when the
// weights are equal — √w·√w may round off w, and a signature must stay
// at distance exactly 0 from itself. The batch kernels call it too, so
// every path folds the same term.
func HellingerAffinity(wa, wb, ra, rb float64) float64 {
	if wa == wb {
		return wa
	}
	return ra * rb
}

// sharedSum is AscendingSum of term(wa, wb) over the nodes a and b
// share — the order FlatSigs and the kernels fold in (kernel.go). The
// terms sit on the stack up to 64 shared nodes.
func sharedSum(a, b Signature, term func(wa, wb float64) float64) float64 {
	var buf [64]float64
	terms := buf[:0]
	for i, u := range a.Nodes {
		if wb := b.Weight(u); wb > 0 {
			terms = append(terms, term(a.Weights[i], wb))
		}
	}
	return AscendingSum(terms)
}

// weightSum is the sum of canonical weights w folded in ascending order
// of the weights — backwards through the canonical, weight-descending
// order — the shared sum of a signature against itself, term for term.
func weightSum(w []float64) float64 {
	sum := 0.0
	for t := len(w) - 1; t >= 0; t-- {
		sum += w[t]
	}
	return sum
}

// scaledDist is 1 − num/den for the scaled kinds, with a denominator
// that is not positive read as distance 0.
func scaledDist(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return clamp01(1 - num/den)
}

// AllDistances returns the paper's four distance functions in the order
// Figure 1 and Figure 3 report them.
func AllDistances() []Distance {
	return []Distance{Jaccard{}, Dice{}, ScaledDice{}, ScaledHellinger{}}
}

// DistanceByName returns the distance with the given Name — one of the
// paper's four or the extended extras — or false.
func DistanceByName(name string) (Distance, bool) {
	for _, d := range ExtendedDistances() {
		if d.Name() == name {
			return d, true
		}
	}
	return nil, false
}

// clamp01 guards against floating-point excursions just outside [0,1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
