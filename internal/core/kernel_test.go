package core

import (
	"math"
	"math/rand"
	"testing"

	"graphsig/internal/graph"
)

// randSig builds a Validate-clean random signature of up to maxLen
// entries drawn from [base, base+span) with positive weights; tied
// weights are common (weights quantized) to exercise canonical-order
// tie-breaking.
func randSig(rng *rand.Rand, maxLen int, base, span int) Signature {
	n := rng.Intn(maxLen + 1)
	weights := map[graph.NodeID]float64{}
	for len(weights) < n {
		u := graph.NodeID(base + rng.Intn(span))
		// Quantized weights force frequent exact ties.
		weights[u] = float64(1+rng.Intn(8)) / 4
	}
	return FromWeights(weights, n)
}

// kernelPairCases yields the edge cases the kernels must reproduce
// bit-for-bit: empties, identical, disjoint, subset/overlap.
func kernelPairCases(rng *rand.Rand) [][2]Signature {
	shared := randSig(rng, 8, 0, 20)
	left := randSig(rng, 8, 0, 30)
	right := randSig(rng, 8, 10, 30)
	disjointA := randSig(rng, 8, 0, 50)
	disjointB := randSig(rng, 8, 100, 50)
	single := FromWeights(map[graph.NodeID]float64{7: 1.5}, 1)
	return [][2]Signature{
		{{}, {}},
		{{}, shared},
		{shared, {}},
		{shared, shared},
		{left, right},
		{right, left},
		{disjointA, disjointB},
		{single, shared},
		{left, left},
	}
}

// kernelFor returns a fresh kernel for d, failing the test when d has
// no kernel kind.
func kernelFor(t testing.TB, d Distance) *DistKernel {
	t.Helper()
	kind, ok := KernelKindOf(d)
	if !ok {
		t.Fatalf("no kernel for %s", d.Name())
	}
	kern := &DistKernel{}
	kern.Reset(kind)
	return kern
}

// checkFlatDistMatchesNaive asserts FlatDist hits the naive
// Distance.Dist bits for (a, b) in both argument orders, and that the
// two orders give the same bits: every registered distance adds each
// sum's terms in ascending order, which reads the same from either
// side.
func checkFlatDistMatchesNaive(t testing.TB, kern *DistKernel, d Distance, a, b Signature) {
	t.Helper()
	pair := []Signature{a, b}
	flat := NewFlatSigs(pair)
	for _, o := range [][2]int{{0, 1}, {1, 0}} {
		x, y := pair[o[0]], pair[o[1]]
		want := d.Dist(x, y)
		got := kern.FlatDist(flat, o[0], flat, o[1])
		if math.IsNaN(want) || math.IsNaN(got) {
			t.Fatalf("%s: NaN distance: naive=%v kernel=%v for %s vs %s", d.Name(), want, got, x, y)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: kernel %v (%x) != naive %v (%x) for %s vs %s",
				d.Name(), got, math.Float64bits(got), want, math.Float64bits(want), x, y)
		}
	}
	if ab, ba := d.Dist(a, b), d.Dist(b, a); math.Float64bits(ab) != math.Float64bits(ba) {
		t.Fatalf("%s: not symmetric: d(a,b) %v (%x), d(b,a) %v (%x) for %s vs %s",
			d.Name(), ab, math.Float64bits(ab), ba, math.Float64bits(ba), a, b)
	}
}

func TestDistKernelBitIdenticalToNaive(t *testing.T) {
	for _, d := range ExtendedDistances() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			kern := kernelFor(t, d)
			rng := rand.New(rand.NewSource(1234))
			for round := 0; round < 50; round++ {
				for _, pair := range kernelPairCases(rng) {
					checkFlatDistMatchesNaive(t, kern, d, pair[0], pair[1])
				}
				// Fully random pairs over a narrow universe: heavy overlap.
				checkFlatDistMatchesNaive(t, kern, d, randSig(rng, 10, 0, 15), randSig(rng, 10, 0, 15))
				// Wide universe: mostly disjoint.
				checkFlatDistMatchesNaive(t, kern, d, randSig(rng, 10, 0, 1000), randSig(rng, 10, 0, 1000))
			}
		})
	}
}

// TestDistKernelScratchReuse re-runs one kernel across many pairs of
// varying size interleaved, catching stale scratch state.
func TestDistKernelScratchReuse(t *testing.T) {
	for _, d := range ExtendedDistances() {
		kern := kernelFor(t, d)
		rng := rand.New(rand.NewSource(99))
		sigs := make([]Signature, 30)
		for i := range sigs {
			sigs[i] = randSig(rng, 1+rng.Intn(12), 0, 40)
		}
		flat := NewFlatSigs(sigs)
		for i := range sigs {
			for j := range sigs {
				want := d.Dist(sigs[i], sigs[j])
				if got := kern.FlatDist(flat, i, flat, j); got != want {
					t.Fatalf("%s: scratch reuse mismatch at (%d,%d): got %v want %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
}

func TestKernelKindOfUnknownDistance(t *testing.T) {
	if _, ok := KernelKindOf(fakeDistance{}); ok {
		t.Fatal("kernel kind granted for unknown distance")
	}
}

type fakeDistance struct{}

func (fakeDistance) Name() string                { return "fake" }
func (fakeDistance) Dist(a, b Signature) float64 { return 0.5 }
