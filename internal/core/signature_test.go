package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// fromWeightsKeyedSortSlice is FromWeightsKeyed as it stood before
// TopKKeyed existed (filter, reflection sort.Slice, cut), kept as the
// oracle the shared selection is held to.
func fromWeightsKeyedSortSlice(weights map[graph.NodeID]float64, k int, key func(graph.NodeID) uint64) Signature {
	type entry struct {
		node   graph.NodeID
		weight float64
		key    uint64
	}
	cand := make([]entry, 0, len(weights))
	for u, w := range weights {
		if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
			cand = append(cand, entry{node: u, weight: w, key: key(u)})
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].weight != cand[j].weight {
			return cand[i].weight > cand[j].weight
		}
		if cand[i].key != cand[j].key {
			return cand[i].key < cand[j].key
		}
		return cand[i].node < cand[j].node
	})
	if k < len(cand) {
		cand = cand[:k]
	}
	sig := Signature{Nodes: make([]graph.NodeID, len(cand)), Weights: make([]float64, len(cand))}
	for i, e := range cand {
		sig.Nodes[i], sig.Weights[i] = e.node, e.weight
	}
	return sig
}

// TestFromWeightsKeyedMatchesSortSlice: the keyed selection every
// streaming signature goes through gives the bits it always did — over
// the kernel fuzz corpus's inputs and random maps with heavy weight
// ties, colliding keys, and the values the filter drops.
func TestFromWeightsKeyedMatchesSortSlice(t *testing.T) {
	keys := []func(graph.NodeID) uint64{
		func(id graph.NodeID) uint64 { return uint64(id) },
		func(id graph.NodeID) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 },
		func(id graph.NodeID) uint64 { return uint64(id) % 3 }, // collisions: the NodeID decides
	}
	check := func(weights map[graph.NodeID]float64, k int) {
		t.Helper()
		for ki, key := range keys {
			got, want := FromWeightsKeyed(weights, k, key), fromWeightsKeyedSortSlice(weights, k, key)
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("key %d k=%d: %v, want %v", ki, k, got, want)
			}
			for i := range want.Nodes {
				if got.Nodes[i] != want.Nodes[i] || math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
					t.Fatalf("key %d k=%d entry %d: %v, want %v", ki, k, i, got, want)
				}
			}
		}
	}
	corpus := [][]byte{
		{}, {1, 16, 0, 2, 32, 0}, {2, 32, 0, 3, 8, 0}, {1, 1, 0, 2, 1, 0, 3, 1, 0}, {4, 1, 0, 5, 1, 0},
		{7, 255, 255, 7, 255, 255}, {7, 255, 255},
	}
	for _, data := range corpus {
		weights := map[graph.NodeID]float64{}
		for ; len(data) >= 3; data = data[3:] {
			weights[graph.NodeID(data[0])] += 0.25 + float64(uint16(data[1])|uint16(data[2])<<8)/16
		}
		for _, k := range []int{1, 2, 4, 40} {
			check(weights, k)
		}
	}
	rng := rand.New(rand.NewSource(27))
	odd := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	for trial := 0; trial < 300; trial++ {
		weights := map[graph.NodeID]float64{}
		for n := rng.Intn(40); n > 0; n-- {
			w := float64(1+rng.Intn(4)) / 4 // few distinct values: ties everywhere
			if rng.Intn(3) == 0 {
				w = rng.Float64()
			}
			if rng.Intn(10) == 0 {
				w = odd[rng.Intn(len(odd))]
			}
			weights[graph.NodeID(rng.Intn(64))] = w
		}
		check(weights, 1+rng.Intn(12))
	}
}
