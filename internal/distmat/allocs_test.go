package distmat

import (
	"testing"

	"graphsig/internal/budget"
	"graphsig/internal/core"
)

// TestEngineRowsAllocFree is the tentpole's steady-state contract: a
// sequential Rows pass over a warm engine performs zero allocations —
// the pooled scratch, the flat SoA views and the reused row buffer
// carry the whole job.
func TestEngineRowsAllocFree(t *testing.T) {
	budget.SkipUnderRace(t)
	set := randSet(t, 7, 150, 10, 120)
	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}
	sink := 0.0
	consume := func(_ int, row []float64) { sink += row[0] }
	for _, d := range core.ExtendedDistances() {
		eng, ok := NewEngine(set, set, d, 1)
		if !ok {
			t.Fatalf("no engine for %s", d.Name())
		}
		eng.Rows(idx, consume) // warm the pool and grow all scratch
		if allocs := testing.AllocsPerRun(10, func() { eng.Rows(idx, consume) }); allocs != 0 {
			t.Errorf("%s: Engine.Rows allocates %.1f times per run, want 0", d.Name(), allocs)
		}
	}
	_ = sink
}

// TestEngineDistAllocFree: the pointwise path owns its kernel. After
// the first calls have grown the match buffer Dist allocates nothing,
// and a throwaway pointwise engine checks nothing out of the shared
// scratch pool: a Rows job interleaved with such engines still finds
// its warm scratch there (a Dist that borrowed a pooled scratch would
// have no point at which to return it).
func TestEngineDistAllocFree(t *testing.T) {
	set := randSet(t, 9, 60, 10, 40)
	view := NewSetView(set)
	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}
	// A disjoint pair: its Dist appends no match, so grows no buffer.
	di, dj := -1, -1
	for i := 0; i < set.Len() && di < 0; i++ {
		for j := range idx {
			if (core.Jaccard{}).Dist(set.Sigs[i], set.Sigs[j]) == 1 {
				di, dj = i, j
				break
			}
		}
	}
	if di < 0 {
		t.Fatal("no disjoint pair in the test set")
	}
	sink := 0.0
	consume := func(_ int, row []float64) { sink += row[0] }
	for _, d := range core.ExtendedDistances() {
		eng, ok := NewEngineOn(view, view, d, 1)
		if !ok {
			t.Fatalf("no engine for %s", d.Name())
		}
		sweep := func() {
			for i := range idx {
				sink += eng.Dist(i, (i+1)%len(idx))
			}
		}
		sweep() // grow the kernel's match buffer
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
			t.Errorf("%s: Engine.Dist allocates %.1f times per sweep, want 0", d.Name(), allocs)
		}
		if budget.RaceEnabled {
			continue // the race detector drops sync.Pool puts
		}
		eng.Rows(idx, consume) // warm the pool
		allocs := testing.AllocsPerRun(10, func() {
			pointwise, _ := NewEngineOn(view, view, d, 1)
			sink += pointwise.Dist(di, dj) // one allocation at most: the engine
			eng.Rows(idx, consume)
		})
		if allocs > 1 {
			t.Errorf("%s: a pointwise engine beside a Rows job costs %.1f allocations, want ≤ 1 (pool drained?)",
				d.Name(), allocs)
		}
	}
	_ = sink
}

// TestQuerierSteadyStateAllocFree: a warm querier answering repeated
// queries allocates nothing — both on the thresholded candidate path
// and the dense row path.
func TestQuerierSteadyStateAllocFree(t *testing.T) {
	budget.SkipUnderRace(t)
	set := randSet(t, 8, 120, 10, 100)
	view := NewSetView(set)
	query := set.Sigs[3]
	for i := 3; query.IsEmpty(); i++ {
		query = set.Sigs[i]
	}
	sink := 0.0
	visit := func(_ int, dist float64) { sink += dist }
	for _, d := range core.ExtendedDistances() {
		q, ok := NewQuerier(d)
		if !ok {
			t.Fatalf("no querier for %s", d.Name())
		}
		for _, maxDist := range []float64{0.6, 1} {
			q.Neighbors(view, query, maxDist, visit) // warm
			if allocs := testing.AllocsPerRun(10, func() { q.Neighbors(view, query, maxDist, visit) }); allocs != 0 {
				t.Errorf("%s maxDist=%g: Querier.Neighbors allocates %.1f times per call, want 0",
					d.Name(), maxDist, allocs)
			}
		}
		q.Release()
	}
	_ = sink
}

// TestQuerierRelease: a released querier's scratch is returned to the
// pool; Release is idempotent.
func TestQuerierRelease(t *testing.T) {
	q, _ := NewQuerier(core.Jaccard{})
	q.Release()
	q.Release()
	if q.s != nil {
		t.Fatal("scratch not cleared on release")
	}
}
