package sketch

import (
	"math"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// streamGraph builds a small bipartite graph and returns it plus the
// edge observations as unit events.
func streamGraph(t *testing.T) (*graph.Universe, *graph.Window, [][2]graph.NodeID) {
	t.Helper()
	u := graph.NewUniverse()
	a := u.MustIntern("a", graph.Part1)
	b := u.MustIntern("b", graph.Part1)
	x := u.MustIntern("x", graph.Part2)
	y := u.MustIntern("y", graph.Part2)
	z := u.MustIntern("z", graph.Part2)
	weights := []struct {
		from, to graph.NodeID
		n        int
	}{
		{a, x, 6}, {a, y, 3}, {a, z, 1},
		{b, x, 2}, {b, z, 2},
	}
	gb := graph.NewBuilder(u, 0)
	var events [][2]graph.NodeID
	for _, e := range weights {
		if err := gb.Add(e.from, e.to, float64(e.n)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < e.n; i++ {
			events = append(events, [2]graph.NodeID{e.from, e.to})
		}
	}
	return u, gb.Build(), events
}

func TestStreamTTMatchesExactWithRoomySketch(t *testing.T) {
	u, w, events := streamGraph(t)
	st := NewStreamTT(StreamConfig{Width: 1024, Depth: 5, Candidates: 64, Seed: 1})
	for _, e := range events {
		if err := st.Observe(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := u.Lookup("a")
	exact, err := core.ComputeOne(core.TopTalkers{}, w, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := st.Signature(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Nodes) != len(approx.Nodes) {
		t.Fatalf("lengths differ: %d vs %d", len(exact.Nodes), len(approx.Nodes))
	}
	for i := range exact.Nodes {
		if exact.Nodes[i] != approx.Nodes[i] || math.Abs(exact.Weights[i]-approx.Weights[i]) > 1e-12 {
			t.Fatalf("entry %d: exact (%v,%g) approx (%v,%g)", i,
				exact.Nodes[i], exact.Weights[i], approx.Nodes[i], approx.Weights[i])
		}
	}
	if len(st.Sources()) != 2 {
		t.Fatalf("sources = %d", len(st.Sources()))
	}
}

func TestStreamUTMatchesExactWithRoomySketch(t *testing.T) {
	u, w, events := streamGraph(t)
	st := NewStreamUT(StreamConfig{Width: 1024, Depth: 5, Candidates: 64, FMBitmaps: 512, Seed: 1})
	for _, e := range events {
		if err := st.Observe(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := u.Lookup("a")
	exact, err := core.ComputeOne(core.UnexpectedTalkers{}, w, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := st.Signature(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With 512 FM bitmaps on ≤2 distinct sources the in-degree estimate
	// is at worst a small constant factor off; membership and order of
	// the top-3 must agree on this tiny graph.
	if len(exact.Nodes) != len(approx.Nodes) {
		t.Fatalf("lengths differ: %d vs %d", len(exact.Nodes), len(approx.Nodes))
	}
	for i := range exact.Nodes {
		if exact.Nodes[i] != approx.Nodes[i] {
			t.Fatalf("member order differs at %d: %v vs %v", i, exact.Nodes, approx.Nodes)
		}
	}
	if got := st.EstimateInDegree(graph.NodeID(99)); got != 0 {
		t.Fatalf("unseen destination in-degree = %g", got)
	}
}

func TestStreamObserveValidation(t *testing.T) {
	st := NewStreamTT(StreamConfig{Seed: 1})
	if err := st.Observe(1, 2, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := st.Observe(1, 2, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Self-communication is ignored, not an error.
	if err := st.Observe(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if len(st.Sources()) != 0 {
		t.Fatal("self-communication created state")
	}
	if _, err := st.Signature(1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	sig, err := st.Signature(42, 3)
	if err != nil || !sig.IsEmpty() {
		t.Fatal("unseen source should have an empty signature")
	}
}

func TestStreamCandidateEviction(t *testing.T) {
	st := NewStreamTT(StreamConfig{Width: 1024, Depth: 4, Candidates: 4, Seed: 2})
	// One heavy destination, then many light ones: the heavy one must
	// survive eviction.
	for i := 0; i < 50; i++ {
		if err := st.Observe(0, 100, 1); err != nil {
			t.Fatal(err)
		}
	}
	for d := graph.NodeID(1); d <= 30; d++ {
		if err := st.Observe(0, d, 1); err != nil {
			t.Fatal(err)
		}
	}
	sig, err := st.Signature(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Len() == 0 || sig.Nodes[0] != 100 {
		t.Fatalf("heavy destination evicted: %v", sig)
	}
	// The candidate cap bounds per-source state.
	if got := len(st.sources[0].cand); got > 4 {
		t.Fatalf("candidate set size %d exceeds cap", got)
	}
}

func TestStreamUTValidation(t *testing.T) {
	st := NewStreamUT(StreamConfig{Seed: 3})
	if err := st.Observe(1, 2, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := st.Signature(1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	sig, err := st.Signature(7, 3)
	if err != nil || !sig.IsEmpty() {
		t.Fatal("unseen source should have empty signature")
	}
}

// TestStreamRejectsNonFiniteWeight: NaN and +Inf pass a `weight <= 0`
// test, and one of them in a source's running total turned every
// normalised weight of the window into NaN or 0 — an empty signature
// and no error. Both extractors refuse them, and a refused observation
// leaves the source (and, for UT, the destination's in-degree) as it
// was.
func TestStreamRejectsNonFiniteWeight(t *testing.T) {
	for _, ut := range []bool{false, true} {
		var st streamExtractor = NewStreamTT(StreamConfig{Seed: 1})
		if ut {
			st = NewStreamUT(StreamConfig{Seed: 1})
		}
		if err := st.Observe(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		before, err := st.Signature(1, 5)
		if err != nil || before.Len() != 1 {
			t.Fatalf("ut=%v: signature %v, err %v", ut, before, err)
		}
		for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := st.Observe(1, 3, w); err == nil {
				t.Fatalf("ut=%v: weight %g accepted", ut, w)
			}
			if err := st.Observe(9, 3, w); err == nil {
				t.Fatalf("ut=%v: weight %g accepted from a new source", ut, w)
			}
		}
		after, err := st.Signature(1, 5)
		if err != nil || !sameSignatureBits(before, after) {
			t.Fatalf("ut=%v: signature %v after rejected observations, was %v (err %v)", ut, after, before, err)
		}
		if len(st.Sources()) != 1 {
			t.Fatalf("ut=%v: a rejected observation created a source: %v", ut, st.Sources())
		}
		if u, ok := st.(*StreamUT); ok && u.EstimateInDegree(3) != 0 {
			t.Fatalf("a rejected observation counted towards in-degree: %g", u.EstimateInDegree(3))
		}
	}
}
