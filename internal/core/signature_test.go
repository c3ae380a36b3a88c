package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"graphsig/internal/graph"
)

func TestFromWeightsCanonicalOrder(t *testing.T) {
	sig := FromWeights(map[graph.NodeID]float64{
		3: 0.5, 1: 0.5, 7: 0.9, 2: 0.1,
	}, 3)
	if sig.Len() != 3 {
		t.Fatalf("Len = %d", sig.Len())
	}
	// Weight desc, node-id asc within ties.
	wantNodes := []graph.NodeID{7, 1, 3}
	wantWeights := []float64{0.9, 0.5, 0.5}
	for i := range wantNodes {
		if sig.Nodes[i] != wantNodes[i] || sig.Weights[i] != wantWeights[i] {
			t.Fatalf("entry %d = (%d,%g)", i, sig.Nodes[i], sig.Weights[i])
		}
	}
	if err := sig.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromWeightsFiltersInvalid(t *testing.T) {
	sig := FromWeights(map[graph.NodeID]float64{
		1: 0, 2: -3, 3: math.NaN(), 4: math.Inf(1), 5: 0.2,
	}, 10)
	if sig.Len() != 1 || sig.Nodes[0] != 5 {
		t.Fatalf("filtering wrong: %v", sig)
	}
}

func TestSignatureAccessors(t *testing.T) {
	sig := FromWeights(map[graph.NodeID]float64{1: 0.6, 2: 0.4}, 5)
	if sig.Weight(1) != 0.6 || sig.Weight(9) != 0 {
		t.Fatal("Weight lookup wrong")
	}
	if !sig.Contains(2) || sig.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if sig.WeightSum() != 1.0 {
		t.Fatalf("WeightSum = %g", sig.WeightSum())
	}
	if sig.IsEmpty() {
		t.Fatal("IsEmpty wrong")
	}
	if (Signature{}).IsEmpty() == false {
		t.Fatal("empty signature not empty")
	}
	if sig.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSignatureNormalized(t *testing.T) {
	sig := FromWeights(map[graph.NodeID]float64{1: 3, 2: 1}, 5)
	n := sig.Normalized()
	if math.Abs(n.WeightSum()-1) > 1e-12 {
		t.Fatalf("normalized sum = %g", n.WeightSum())
	}
	if n.Weights[0] != 0.75 {
		t.Fatalf("normalized top weight = %g", n.Weights[0])
	}
	// The original is untouched.
	if sig.Weights[0] != 3 {
		t.Fatal("Normalized mutated the receiver")
	}
	empty := Signature{}
	if !empty.Normalized().IsEmpty() {
		t.Fatal("Normalized of empty changed it")
	}
}

func TestSignatureEqual(t *testing.T) {
	a := FromWeights(map[graph.NodeID]float64{1: 1, 2: 0.5}, 5)
	b := FromWeights(map[graph.NodeID]float64{1: 1, 2: 0.5}, 5)
	c := FromWeights(map[graph.NodeID]float64{1: 1, 2: 0.6}, 5)
	if !a.Equal(b) || a.Equal(c) || a.Equal(Signature{}) {
		t.Fatal("Equal wrong")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Signature{
		{Nodes: []graph.NodeID{1}, Weights: nil},
		{Nodes: []graph.NodeID{1}, Weights: []float64{0}},
		{Nodes: []graph.NodeID{1}, Weights: []float64{-1}},
		{Nodes: []graph.NodeID{1, 1}, Weights: []float64{2, 1}},
		{Nodes: []graph.NodeID{1, 2}, Weights: []float64{1, 2}},     // ascending weights
		{Nodes: []graph.NodeID{1}, Weights: []float64{math.NaN()}},  // NaN
		{Nodes: []graph.NodeID{1}, Weights: []float64{math.Inf(1)}}, // Inf
	}
	for i, sig := range bad {
		if err := sig.Validate(); err == nil {
			t.Fatalf("case %d validated: %v", i, sig)
		}
	}
}

// descendingSig is a valid signature of k distinct nodes.
func descendingSig(k int) Signature {
	sig := Signature{Nodes: make([]graph.NodeID, k), Weights: make([]float64, k)}
	for i := range sig.Nodes {
		sig.Nodes[i] = graph.NodeID(3 * i)
		sig.Weights[i] = float64(k - i)
	}
	return sig
}

// TestValidateRepeats drives the repeat check on both sides of
// validateScanMax — the scan and the map must reject the same inputs
// with the same text — and pins the scan side at zero allocations: it
// runs on every signature of every decoded, loaded and replayed window.
// (Nothing here is pooled, so unlike the store and distmat allocation
// tests this one holds under -race too.)
func TestValidateRepeats(t *testing.T) {
	for _, k := range []int{0, 1, 2, 10, validateScanMax, validateScanMax + 1, 3 * validateScanMax} {
		sig := descendingSig(k)
		if err := sig.Validate(); err != nil {
			t.Fatalf("k=%d: valid signature rejected: %v", k, err)
		}
		if k <= 10 {
			if allocs := testing.AllocsPerRun(20, func() { _ = sig.Validate() }); allocs != 0 {
				t.Fatalf("k=%d: Validate allocated %.1f times, want 0", k, allocs)
			}
		}
		if k < 2 {
			continue
		}
		for _, at := range []int{1, k - 1} {
			bad := descendingSig(k)
			bad.Nodes[at] = bad.Nodes[0]
			want := fmt.Sprintf("core: signature repeats node %d", bad.Nodes[0])
			if err := bad.Validate(); err == nil || err.Error() != want {
				t.Fatalf("k=%d repeat at %d: err = %v, want %q", k, at, err, want)
			}
		}
	}
}

// Property: FromWeights always yields a valid signature of length
// min(k, positive entries).
func TestFromWeightsProperty(t *testing.T) {
	f := func(raw map[uint8]float64, kRaw uint8) bool {
		k := int(kRaw%12) + 1
		weights := map[graph.NodeID]float64{}
		positives := 0
		for n, w := range raw {
			weights[graph.NodeID(n)] = w
			if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
				positives++
			}
		}
		sig := FromWeights(weights, k)
		if sig.Validate() != nil {
			return false
		}
		want := positives
		if k < want {
			want = k
		}
		return sig.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
