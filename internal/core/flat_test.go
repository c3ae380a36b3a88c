package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestFlatSigsInvariants checks the SoA view's per-signature data
// against the Signature itself: the canonical copy, the strictly
// ascending node order with a permutation that maps back, and folds
// bit-equal to a plain canonical-order fold and Signature.Normalized.
func TestFlatSigsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sigs []Signature
	for i := 0; i < 160; i++ {
		sigs = append(sigs, randSig(rng, 12, rng.Intn(30), 60))
	}
	sigs = append(sigs, Signature{}, Signature{})
	flat := NewFlatSigs(sigs)
	if flat.NumSigs() != len(sigs) {
		t.Fatalf("NumSigs = %d, want %d", flat.NumSigs(), len(sigs))
	}
	for i, s := range sigs {
		if flat.Len(i) != s.Len() || flat.IsEmpty(i) != s.IsEmpty() {
			t.Fatalf("sig %d: len/empty mismatch", i)
		}
		if got := (Signature{Nodes: flat.Nodes(i), Weights: flat.Weights(i)}); !got.Equal(s) {
			t.Fatalf("sig %d: canonical copy %s does not round-trip %s", i, got, s)
		}
		sorted, pos := flat.SortedNodes(i), flat.Pos(i)
		if len(sorted) != s.Len() || len(pos) != s.Len() {
			t.Fatalf("sig %d: sorted/pos length mismatch", i)
		}
		seen := make([]bool, s.Len())
		for tdx, u := range sorted {
			if tdx > 0 && sorted[tdx-1] >= u {
				t.Fatalf("sig %d: nodes not strictly ascending: %v", i, sorted)
			}
			if seen[pos[tdx]] {
				t.Fatalf("sig %d: pos %v is not a permutation", i, pos)
			}
			seen[pos[tdx]] = true
			if s.Nodes[pos[tdx]] != u {
				t.Fatalf("sig %d: pos[%d] does not map back to sorted node", i, tdx)
			}
		}
		sumSq := 0.0
		for _, w := range s.Weights {
			sumSq += w * w
		}
		if math.Float64bits(flat.WeightSum(i)) != math.Float64bits(s.WeightSum()) {
			t.Fatalf("sig %d: sum mismatch", i)
		}
		if math.Float64bits(flat.SumSq(i)) != math.Float64bits(sumSq) {
			t.Fatalf("sig %d: sumSq mismatch", i)
		}
		if math.Float64bits(flat.Norm(i)) != math.Float64bits(math.Sqrt(sumSq)) {
			t.Fatalf("sig %d: norm mismatch", i)
		}
		for tdx, w := range s.Normalized().Weights {
			if math.Float64bits(flat.NormWeights(i)[tdx]) != math.Float64bits(w) {
				t.Fatalf("sig %d: normW[%d] mismatch", i, tdx)
			}
		}
	}
}

// TestFlatSigsPrefixSums checks the canonical-order prefix arrays: the
// top-m accessors must equal a direct fold of the first m canonical
// entries, clamp out of range, and the full prefix must equal the sum.
func TestFlatSigsPrefixSums(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sigs []Signature
	for i := 0; i < 40; i++ {
		sigs = append(sigs, randSig(rng, 10, 0, 25))
	}
	flat := NewFlatSigs(sigs)
	for i := range sigs {
		w := flat.Weights(i)
		nw := flat.NormWeights(i)
		sumW, sumN := 0.0, 0.0
		for m := 1; m <= len(w); m++ {
			sumW += w[m-1]
			sumN += nw[m-1]
			if flat.TopWeightSum(i, m) != sumW || flat.TopNormSum(i, m) != sumN {
				t.Fatalf("sig %d: prefix sums diverge at m=%d", i, m)
			}
		}
		if flat.TopWeightSum(i, 0) != 0 || flat.TopWeightSum(i, -1) != 0 {
			t.Fatalf("sig %d: m<=0 must read 0", i)
		}
		if got := flat.TopWeightSum(i, len(w)+5); got != sumW {
			t.Fatalf("sig %d: overshoot m must clamp to full sum, got %v want %v", i, got, sumW)
		}
		if math.Float64bits(flat.TopWeightSum(i, len(w))) != math.Float64bits(flat.WeightSum(i)) {
			t.Fatalf("sig %d: full prefix != sum", i)
		}
		// Canonical order is weight-descending, so the prefix is the max
		// achievable sum for any m entries.
		for m := 1; m <= len(w); m++ {
			pick := 0.0
			for _, x := range w[len(w)-m:] {
				pick += x
			}
			if flat.TopWeightSum(i, m) < pick-1e-12 {
				t.Fatalf("sig %d: top-%d prefix %v below a real subset sum %v", i, m, flat.TopWeightSum(i, m), pick)
			}
		}
	}
}

// TestFlatSigsResetReuse checks the zero-allocation recycle contract:
// once grown, Reset with same-or-smaller inputs allocates nothing and
// produces the same view a fresh build does.
func TestFlatSigsResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := make([]Signature, 20)
	for i := range big {
		big[i] = randSig(rng, 12, 0, 40)
	}
	small := []Signature{randSig(rng, 6, 0, 20), {}}

	f := NewFlatSigs(big)
	allocs := testing.AllocsPerRun(20, func() {
		f.Reset(small)
		f.Reset(big)
	})
	if allocs != 0 {
		t.Fatalf("Reset allocated %.1f times per cycle, want 0", allocs)
	}

	f.Reset(small)
	fresh := NewFlatSigs(small)
	kern := kernelFor(t, Cosine{})
	for i := range small {
		for j := range small {
			a, b := kern.FlatDist(f, i, f, j), kern.FlatDist(fresh, i, fresh, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("recycled view dist(%d,%d)=%v != fresh %v", i, j, a, b)
			}
		}
	}
}

// TestFlatDistLargeSig pushes a signature past the insertion-sort
// cutoff to exercise the heapsort path.
func TestFlatDistLargeSig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSig(rng, 2*insertionSortCutoff, 0, 4*insertionSortCutoff)
	for len(a.Nodes) <= insertionSortCutoff {
		a = randSig(rng, 2*insertionSortCutoff, 0, 4*insertionSortCutoff)
	}
	b := randSig(rng, 2*insertionSortCutoff, 0, 4*insertionSortCutoff)
	flat := NewFlatSigs([]Signature{a, b})
	for _, d := range ExtendedDistances() {
		kern := kernelFor(t, d)
		want := d.Dist(a, b)
		if got := kern.FlatDist(flat, 0, flat, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: flat %v != naive %v on large sigs", d.Name(), got, want)
		}
	}
}

// TestScatterFinishMatchesFlatDist checks the O(1) scatter finishers
// against the full flat kernel for the three scatterable kinds.
func TestScatterFinishMatchesFlatDist(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sigs []Signature
	for i := 0; i < 30; i++ {
		sigs = append(sigs, randSig(rng, 10, 0, 25))
	}
	flat := NewFlatSigs(sigs)
	for _, d := range []Distance{Jaccard{}, Dice{}, Cosine{}} {
		kern := kernelFor(t, d)
		for i := range sigs {
			for j := range sigs {
				if flat.IsEmpty(i) && flat.IsEmpty(j) {
					continue
				}
				kern.mergeFlat(flat, i, flat, j)
				kern.sortMatchesByA()
				var cnt int32
				acc := 0.0
				aw, bw := flat.Weights(i), flat.Weights(j)
				for _, m := range kern.matches {
					cnt++
					switch kern.Kind() {
					case KindDice:
						acc += aw[m.A] + bw[m.B]
					case KindCosine:
						acc += aw[m.A] * bw[m.B]
					}
				}
				want := kern.FlatDist(flat, i, flat, j)
				got := kern.ScatterFinish(flat, i, flat, j, cnt, acc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: ScatterFinish(%d,%d)=%v != FlatDist %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
}
