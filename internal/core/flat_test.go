package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestFlatSigsInvariants checks the SoA view's per-signature data
// against the Signature itself: the canonical copy, the strictly
// ascending node order with a permutation that maps back, folds
// bit-equal to a plain fold of the weights in ascending order,
// normalized weights bit-equal to each weight over that sum, and square
// roots bit-equal to math.Sqrt of each weight.
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
		ascending := slices.Clone(s.Weights)
		slices.Sort(ascending)
		sum, sumSq := 0.0, 0.0
		for _, w := range ascending {
			sum += w
			sumSq += w * w
		}
		if math.Float64bits(flat.folds[i].Sum) != math.Float64bits(sum) {
			t.Fatalf("sig %d: sum mismatch", i)
		}
		if math.Float64bits(flat.folds[i].SumSq) != math.Float64bits(sumSq) {
			t.Fatalf("sig %d: sumSq mismatch", i)
		}
		if math.Float64bits(flat.folds[i].Norm) != math.Float64bits(math.Sqrt(sumSq)) {
			t.Fatalf("sig %d: norm mismatch", i)
		}
		for tdx, w := range s.Weights {
			if math.Float64bits(flat.NormWeights(i)[tdx]) != math.Float64bits(w/sum) {
				t.Fatalf("sig %d: normW[%d] mismatch", i, tdx)
			}
		}
		normSum := 0.0
		for _, w := range ascending {
			normSum += w / sum
		}
		if math.Float64bits(flat.folds[i].NormSum) != math.Float64bits(normSum) {
			t.Fatalf("sig %d: normSum mismatch", i)
		}
		for tdx, w := range s.Weights {
			if math.Float64bits(flat.SqrtWeights(i)[tdx]) != math.Float64bits(math.Sqrt(w)) {
				t.Fatalf("sig %d: sqrtW[%d] mismatch", i, tdx)
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

// TestScatterFinishMatchesFlatDist checks the O(1) finish against the
// naive distance for all six kinds, fed sums folded in ascending order
// of their terms: the shared entries each found by a probe of the column
// signature.
func TestScatterFinishMatchesFlatDist(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sigs []Signature
	for i := 0; i < 30; i++ {
		sigs = append(sigs, randSig(rng, 10, 0, 25))
	}
	flat := NewFlatSigs(sigs)
	for _, d := range ExtendedDistances() {
		kern := kernelFor(t, d)
		for i := range sigs {
			for j := range sigs {
				if flat.IsEmpty(i) && flat.IsEmpty(j) {
					continue
				}
				var cnt int32
				var terms, minTerms []float64
				for ai, u := range flat.Nodes(i) {
					bi := slices.Index(flat.Nodes(j), u)
					if bi < 0 {
						continue
					}
					cnt++
					wa, wb := flat.Weights(i)[ai], flat.Weights(j)[bi]
					switch kern.Kind() {
					case KindDice:
						terms = append(terms, wa+wb)
					case KindCosine:
						terms = append(terms, wa*wb)
					case KindScaledDice:
						terms = append(terms, math.Min(wa, wb))
					case KindWeightedJaccard:
						terms = append(terms, math.Min(flat.NormWeights(i)[ai], flat.NormWeights(j)[bi]))
					case KindScaledHellinger:
						terms = append(terms, HellingerAffinity(wa, wb, flat.SqrtWeights(i)[ai], flat.SqrtWeights(j)[bi]))
						minTerms = append(minTerms, math.Min(wa, wb))
					}
				}
				num, mins := AscendingSum(terms), AscendingSum(minTerms)
				want := d.Dist(sigs[i], sigs[j])
				got := kern.ScatterFinish(flat, i, flat, j, cnt, num, mins)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: ScatterFinish(%d,%d)=%v != Dist %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
}
