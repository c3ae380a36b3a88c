package core

import (
	"encoding/binary"
	"testing"

	"graphsig/internal/graph"
)

// fuzzSig decodes a signature from fuzz bytes: 3 bytes per entry — a
// node id and a 2-byte weight mantissa — funneled through FromWeights
// so the result is always Validate-clean (duplicates collapse, the
// heaviest k survive in canonical order).
func fuzzSig(data []byte, k int) Signature {
	weights := make(map[graph.NodeID]float64)
	for len(data) >= 3 {
		node := graph.NodeID(data[0])
		w := float64(binary.LittleEndian.Uint16(data[1:3]))
		// Spread magnitudes across several orders so folds hit varied
		// rounding, and keep some exact ties for tie-break coverage.
		weights[node] += 0.25 + w/16
		data = data[3:]
	}
	return FromWeights(weights, k)
}

// FuzzDistKernels checks the kernels' bit-identity contract: for any
// pair of Validate-clean signatures and every distance in
// ExtendedDistances, DistKernel.FlatDist must return the exact float64
// the naive Distance.Dist does, in both argument orders, and the two
// orders must agree: FlatDist(a,b) == FlatDist(b,a) == naive.
func FuzzDistKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(4))
	f.Add([]byte{1, 16, 0, 2, 32, 0}, []byte{2, 32, 0, 3, 8, 0}, uint8(4))
	f.Add([]byte{1, 1, 0, 2, 1, 0, 3, 1, 0}, []byte{4, 1, 0, 5, 1, 0}, uint8(2)) // disjoint, ties
	f.Add([]byte{7, 255, 255, 7, 255, 255}, []byte{7, 255, 255}, uint8(8))       // duplicate folding
	// The scaled kinds' closed form, Σmax = Σa + Σb − Σmin over the shared
	// nodes: equal shared weights (ScaledHellinger's affinity is then w
	// itself), a signature against itself (exactly 0), one shared node,
	// and a denominator that nearly cancels — two heavy equal weights
	// beside light unshared ones, normalized (WeightedJaccard) to
	// 1 + 1 − Σmin ≈ 1. A denominator that is not positive reads as 0.
	f.Add([]byte{1, 100, 0, 2, 7, 0}, []byte{1, 100, 0, 3, 0x84, 0x03}, uint8(4))
	f.Add([]byte{1, 1, 0, 2, 0x21, 0x43, 9, 0xff, 0x7f}, []byte{1, 1, 0, 2, 0x21, 0x43, 9, 0xff, 0x7f}, uint8(8))
	f.Add([]byte{5, 0xf0, 0x0f}, []byte{5, 3, 0, 6, 0x10, 0, 7, 0x99, 0x09}, uint8(3))
	f.Add([]byte{1, 255, 255, 2, 0, 0}, []byte{1, 255, 255, 3, 1, 0}, uint8(4))
	// Exact symmetry: three and four shared nodes whose canonical
	// (weight-descending) orders differ between a and b, so a fold in
	// either side's canonical order would not read the same both ways —
	// node 1 heaviest in a and lightest in b.
	f.Add([]byte{1, 0x00, 0x30, 2, 0x07, 0x01, 3, 0x33, 0x00}, []byte{1, 0x01, 0x00, 2, 0x00, 0x21, 3, 0x15, 0x06}, uint8(6))
	f.Add([]byte{4, 0x99, 0x19, 1, 0x0d, 0xa0, 2, 0x03, 0x00, 3, 0x77, 0x05}, []byte{3, 0xef, 0xbe, 2, 0x11, 0x42, 1, 0x01, 0x00, 4, 0x05, 0x03}, uint8(8))

	f.Fuzz(func(t *testing.T, araw, braw []byte, kraw uint8) {
		k := 1 + int(kraw)%40
		a := fuzzSig(araw, k)
		b := fuzzSig(braw, k)
		if err := a.Validate(); err != nil {
			t.Fatalf("fuzzSig built an invalid signature: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("fuzzSig built an invalid signature: %v", err)
		}
		for _, d := range ExtendedDistances() {
			checkFlatDistMatchesNaive(t, kernelFor(t, d), d, a, b)
		}
	})
}
