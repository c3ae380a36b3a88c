package distmat

import (
	"math"
	"runtime"
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

// TestEngineParallelAllocBudget: a parallel job allocates per worker —
// its goroutines, the ring's slots, PairsWithin's chunk list and
// result —, never per row or per block. A warm Rows or MapRows job over
// 1 300 rows, and a MapTriangle or PairsWithin over 1 300 signatures,
// make as many allocations as the same jobs at 130.
func TestEngineParallelAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const workers = 4
	big := randSet(t, 13, 1300, 10, 400)
	head, err := core.NewSignatureSet("test", 0, big.Sources[:130], big.Sigs[:130])
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, big.Len())
	for i := range idx {
		idx[i] = i
	}
	sink := 0.0
	consume := func(_ int, row []float64) { sink += row[0] }
	reduce := func(_ int, row Candidates) float64 { return float64(len(row.Cols)) }
	for _, d := range []core.Distance{core.Jaccard{}, core.ScaledHellinger{}} {
		eng, _ := NewEngine(big, big, d, workers)
		rows := func(n int) uint64 { return steadyAllocs(func() { eng.Rows(idx[:n], consume) }) }
		mapped := func(n int) uint64 {
			return steadyAllocs(func() { MapRows(eng, idx[:n], reduce, func(_ int, x float64) { sink += x }) })
		}
		triangle := func(set *core.SignatureSet) uint64 {
			within, _ := NewEngine(set, set, d, workers)
			return steadyAllocs(func() { MapTriangle(within, reduce, func(_ int, x float64) { sink += x }) })
		}
		pairs := func(set *core.SignatureSet) uint64 {
			within, _ := NewEngine(set, set, d, workers)
			if len(within.PairsWithin(0.6)) == 0 {
				t.Fatalf("%s: no pair within 0.6 among %d signatures (the result is then not allocated)", d.Name(), set.Len())
			}
			return steadyAllocs(func() { within.PairsWithin(0.6) })
		}
		// The larger job first: it grows the pooled scratch the smaller reuses.
		if large, small := rows(1300), rows(130); large != small || large > 8*workers {
			t.Errorf("%s: parallel Rows allocates %d times at 130 rows and %d at 1 300, want equal and ≤ %d",
				d.Name(), small, large, 8*workers)
		}
		if large, small := mapped(1300), mapped(130); large != small || large > 8*workers {
			t.Errorf("%s: MapRows allocates %d times at 130 rows and %d at 1 300, want equal and ≤ %d",
				d.Name(), small, large, 8*workers)
		}
		if large, small := triangle(big), triangle(head); large != small || large > 8*workers {
			t.Errorf("%s: MapTriangle allocates %d times at 130 rows and %d at 1 300, want equal and ≤ %d",
				d.Name(), small, large, 8*workers)
		}
		if large, small := pairs(big), pairs(head); large != small || large > 8*workers {
			t.Errorf("%s: PairsWithin allocates %d times at 130 rows and %d at 1 300, want equal and ≤ %d",
				d.Name(), small, large, 8*workers)
		}
	}
	_ = sink
}

// steadyAllocs is the fewest allocations any of 20 calls of f makes on
// one P, after two warm-up calls there: what a job costs once its pooled
// scratch is warm. A call now and then still finds the pool short and
// refills it; that is not a per-row cost, and it does not repeat.
func steadyAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	f()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestEngineDistAllocFree: the pointwise path owns its kernel. After
// the first calls have grown the match list Dist allocates nothing,
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
	// A disjoint pair: its Dist appends no match, so grows no list.
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
		sweep() // grow the kernel's match list
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
