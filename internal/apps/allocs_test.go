//go:build !race

// The race detector drops sync.Pool puts, so scratch reuse is only
// observable without it.

package apps

import (
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// kernelless hides a registered distance from the engine's kind lookup;
// its querier is a plain d.Dist scan that borrows no scratch.
type kernelless struct{ core.Distance }

// TestNearestNeighborsReleasesScratch: NearestNeighbors hands its
// querier's pooled scratch back (the leak distmat's
// TestEngineDistAllocFree pins for Engine.Dist). In steady state the
// kernel path then allocates no more than the scratch-free path does for
// the same job — not a fresh scratch and its arrays on every call.
func TestNearestNeighborsReleasesScratch(t *testing.T) {
	sigs := map[graph.NodeID]map[graph.NodeID]float64{}
	for v := graph.NodeID(0); v < 40; v++ {
		sigs[v] = map[graph.NodeID]float64{100 + v%7: 2, 100 + v%5: 1, 200 + v: 1}
	}
	set := makeSet(t, 0, sigs)
	allocs := func(d core.Distance) float64 {
		run := func() {
			if _, err := NearestNeighbors(d, set, 3, 5); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool and grow the scratch
		return testing.AllocsPerRun(20, run)
	}
	d := core.ScaledDice{}
	if kernel, plain := allocs(d), allocs(kernelless{d}); kernel > plain {
		t.Fatalf("NearestNeighbors allocates %.0f times per call on the kernel path, %.0f without a scratch: scratch not released",
			kernel, plain)
	}
}
