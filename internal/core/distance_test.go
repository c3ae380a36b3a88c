package core

import (
	"math"
	"testing"
	"testing/quick"

	"graphsig/internal/graph"
)

func sig(pairs ...any) Signature {
	w := map[graph.NodeID]float64{}
	for i := 0; i < len(pairs); i += 2 {
		w[graph.NodeID(pairs[i].(int))] = pairs[i+1].(float64)
	}
	return FromWeights(w, len(pairs))
}

func TestDistanceHandComputed(t *testing.T) {
	a := sig(1, 0.6, 2, 0.4)
	b := sig(2, 0.4, 3, 0.6)
	// Intersection {2}; union {1,2,3}.
	cases := []struct {
		d    Distance
		want float64
	}{
		{Jaccard{}, 1 - 1.0/3},
		// Dice: 1 − (0.4+0.4)/(1.0+1.0) = 0.6
		{Dice{}, 0.6},
		// SDice: 1 − min(0.4,0.4)/(0.6+0.4+0.6) = 1 − 0.4/1.6 = 0.75
		{ScaledDice{}, 0.75},
		// SHel: 1 − √(0.16)/1.6 = 0.75
		{ScaledHellinger{}, 0.75},
	}
	for _, c := range cases {
		if got := c.d.Dist(a, b); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%s = %.6f, want %.6f", c.d.Name(), got, c.want)
		}
	}
}

func TestDistanceSHelSoftensSDice(t *testing.T) {
	// Same members, unequal weights: SHel must penalize less than SDice.
	a := sig(1, 0.9, 2, 0.1)
	b := sig(1, 0.1, 2, 0.9)
	sd := ScaledDice{}.Dist(a, b)
	sh := ScaledHellinger{}.Dist(a, b)
	if !(sh < sd) {
		t.Fatalf("SHel (%g) not below SDice (%g)", sh, sd)
	}
	// Jaccard sees identical sets.
	if (Jaccard{}).Dist(a, b) != 0 {
		t.Fatal("Jaccard should ignore weights")
	}
}

func TestDistanceIdentityAndDisjoint(t *testing.T) {
	a := sig(1, 0.6, 2, 0.4)
	c := sig(5, 1.0)
	for _, d := range AllDistances() {
		if got := d.Dist(a, a); got != 0 {
			t.Fatalf("%s(a,a) = %g", d.Name(), got)
		}
		if got := d.Dist(a, c); got != 1 {
			t.Fatalf("%s(disjoint) = %g", d.Name(), got)
		}
	}
}

// TestDisjointPastOverflow: signatures sharing no node lie at exactly 1
// under every registered distance even when their weights sum past the
// largest float64 — the closed form the batch kernels and the cold scan
// skip disjoint pairs by.
func TestDisjointPastOverflow(t *testing.T) {
	a := sig(1, math.MaxFloat64, 2, math.MaxFloat64/2)
	b := sig(3, math.MaxFloat64, 4, math.MaxFloat64)
	for _, d := range ExtendedDistances() {
		if got := d.Dist(a, b); got != 1 {
			t.Errorf("%s(disjoint, sums +Inf) = %g", d.Name(), got)
		}
	}
}

func TestDistanceEmptyCases(t *testing.T) {
	a := sig(1, 0.6)
	empty := Signature{}
	for _, d := range AllDistances() {
		if got := d.Dist(empty, empty); got != 0 {
			t.Fatalf("%s(∅,∅) = %g", d.Name(), got)
		}
		if got := d.Dist(a, empty); got != 1 {
			t.Fatalf("%s(a,∅) = %g", d.Name(), got)
		}
		if got := d.Dist(empty, a); got != 1 {
			t.Fatalf("%s(∅,a) = %g", d.Name(), got)
		}
	}
}

// Property: all six distances are exactly symmetric — the same bits
// both ways — and bounded in [0,1] for arbitrary valid signatures, and
// a signature is at exactly 0 from itself (Cosine to rounding: its
// √Σw²·√Σw² may round off Σw²).
func TestDistanceBoundsAndSymmetry(t *testing.T) {
	gen := func(raw map[uint8]uint16) Signature {
		w := map[graph.NodeID]float64{}
		for n, v := range raw {
			w[graph.NodeID(n%32)] = float64(v%1000)/100 + 0.01
		}
		return FromWeights(w, 10)
	}
	f := func(rawA, rawB map[uint8]uint16) bool {
		a, b := gen(rawA), gen(rawB)
		for _, d := range ExtendedDistances() {
			ab := d.Dist(a, b)
			ba := d.Dist(b, a)
			if math.Float64bits(ab) != math.Float64bits(ba) {
				return false
			}
			if ab < 0 || ab > 1 || math.IsNaN(ab) {
				return false
			}
			if self := d.Dist(a, a); self != 0 && (d != Distance(Cosine{}) || self > 1e-15) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveDistAllocFree: the naive loops sort their terms on the stack
// and build nothing — no normalized signature.
func TestNaiveDistAllocFree(t *testing.T) {
	a := sig(1, 0.6, 2, 0.4, 9, 0.2)
	b := sig(2, 0.3, 9, 0.7, 4, 0.1)
	for _, d := range ExtendedDistances() {
		if allocs := testing.AllocsPerRun(20, func() { _ = d.Dist(a, b) }); allocs != 0 {
			t.Errorf("%s: Dist allocates %.1f times per call, want 0", d.Name(), allocs)
		}
	}
}

func TestDistanceByName(t *testing.T) {
	for _, d := range AllDistances() {
		got, ok := DistanceByName(d.Name())
		if !ok || got.Name() != d.Name() {
			t.Fatalf("DistanceByName(%q) failed", d.Name())
		}
	}
	if _, ok := DistanceByName("nope"); ok {
		t.Fatal("DistanceByName invented a distance")
	}
}

// Property: subset relation — removing members never decreases Jaccard
// distance to the original.
func TestJaccardSubsetMonotone(t *testing.T) {
	f := func(raw map[uint8]uint16, drop uint8) bool {
		w := map[graph.NodeID]float64{}
		for n, v := range raw {
			w[graph.NodeID(n%32)] = float64(v%100) + 1
		}
		full := FromWeights(w, 32)
		if full.Len() < 2 {
			return true
		}
		// Drop one member.
		removed := full.Nodes[int(drop)%full.Len()]
		delete(w, removed)
		sub := FromWeights(w, 32)
		d := Jaccard{}
		return d.Dist(full, sub) > 0 && d.Dist(full, sub) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
