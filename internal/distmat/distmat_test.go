package distmat

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// randSet builds a SignatureSet of n sources with random signatures over
// a node universe of the given span (small span → heavy overlap, large
// span → mostly disjoint pairs). Roughly 1 in 8 signatures is empty.
func randSet(t *testing.T, seed int64, n, maxLen, span int) *core.SignatureSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sources := make([]graph.NodeID, n)
	sigs := make([]core.Signature, n)
	for i := range sources {
		sources[i] = graph.NodeID(10_000 + i)
		if rng.Intn(8) == 0 {
			continue // empty signature
		}
		ln := 1 + rng.Intn(maxLen)
		weights := map[graph.NodeID]float64{}
		for len(weights) < ln {
			weights[graph.NodeID(rng.Intn(span))] = float64(1+rng.Intn(16)) / 4
		}
		sigs[i] = core.FromWeights(weights, ln)
	}
	set, err := core.NewSignatureSet("test", 0, sources, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// naiveMatrix computes the full rectangular distance matrix with the
// reference per-pair Dist.
func naiveMatrix(d core.Distance, rows, cols *core.SignatureSet) [][]float64 {
	m := make([][]float64, rows.Len())
	for i := range m {
		m[i] = make([]float64, cols.Len())
		for j := range m[i] {
			m[i][j] = d.Dist(rows.Sigs[i], cols.Sigs[j])
		}
	}
	return m
}

// engineMatrix collects the engine's rows into a materialized matrix.
func engineMatrix(t *testing.T, eng *Engine, nRows, nCols int) [][]float64 {
	t.Helper()
	m := make([][]float64, nRows)
	idx := make([]int, nRows)
	for i := range idx {
		idx[i] = i
	}
	eng.Rows(idx, func(i int, row []float64) {
		m[i] = append([]float64(nil), row...)
	})
	return m
}

func TestEngineMatchesNaiveAllPairs(t *testing.T) {
	for _, span := range []int{25, 2000} { // dense overlap and sparse overlap
		set := randSet(t, int64(span), 90, 9, span)
		for _, d := range core.ExtendedDistances() {
			eng, ok := NewEngine(set, set, d, 0)
			if !ok {
				t.Fatalf("engine rejected %s", d.Name())
			}
			want := naiveMatrix(d, set, set)
			got := engineMatrix(t, eng, set.Len(), set.Len())
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("%s span=%d: cell (%d,%d): engine %v, naive %v",
								d.Name(), span, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
	}
}

func TestEngineMatchesNaiveCrossSet(t *testing.T) {
	rows := randSet(t, 3, 40, 8, 60)
	cols := randSet(t, 4, 70, 8, 60)
	for _, d := range core.ExtendedDistances() {
		eng, ok := NewEngine(rows, cols, d, 0)
		if !ok {
			t.Fatalf("engine rejected %s", d.Name())
		}
		want := naiveMatrix(d, rows, cols)
		got := engineMatrix(t, eng, rows.Len(), cols.Len())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cross-set matrix mismatch", d.Name())
		}
	}
}

// TestEngineParallelIdenticalToSequential is the determinism contract:
// the same rows, in the same order, with bit-identical values, whatever
// the worker count (0 is GOMAXPROCS, which `go test -cpu` varies), the
// job's length around the 16-row block, and the consumer's pace — one
// that merely copies outruns the workers, one that sleeps per row makes
// the ring wrap and the workers wait for slots.
func TestEngineParallelIdenticalToSequential(t *testing.T) {
	set := randSet(t, 11, 130, 9, 80)
	n := set.Len()
	d := core.ScaledHellinger{}
	seq, ok := NewEngine(set, set, d, 1)
	if !ok {
		t.Fatal("no engine")
	}
	wantM := engineMatrix(t, seq, n, n)
	consumers := map[string]func(){"fast": func() {}, "slow": func() { time.Sleep(20 * time.Microsecond) }}
	for _, workers := range []int{0, 2, 3, 7, 16} {
		par, ok := NewEngine(set, set, d, workers)
		if !ok {
			t.Fatal("no engine")
		}
		for _, rows := range []int{0, 1, 15, 16, 17, 33, n} {
			idx := make([]int, rows)
			for t := range idx {
				idx[t] = t * 7 % n // 7 is prime to 130: a permutation at rows = n
			}
			for name, pace := range consumers {
				if name == "slow" && rows < n {
					continue
				}
				var order []int
				got := make([][]float64, rows)
				par.Rows(idx, func(t int, row []float64) {
					pace()
					order = append(order, t)
					got[t] = append([]float64(nil), row...)
				})
				if len(order) != rows {
					t.Fatalf("workers=%d rows=%d %s: %d rows delivered", workers, rows, name, len(order))
				}
				for t2, i := range idx {
					if order[t2] != t2 {
						t.Fatalf("workers=%d rows=%d %s: rows delivered out of order: %v", workers, rows, name, order)
					}
					if !reflect.DeepEqual(got[t2], wantM[i]) {
						t.Fatalf("workers=%d rows=%d %s: row %d differs from sequential", workers, rows, name, i)
					}
				}
			}
		}
	}
}

// TestEngineRowsSlowWorkerKeepsItsSlot: a worker held up between taking
// block b from the counter and claiming its slot keeps the slot against
// a faster worker that meanwhile took block b + ring. With a free token
// per slot instead of the consumer's position, the faster worker took
// the token the consumer had released for block b, and the consumer
// delivered block b + ring's rows as block b's.
func TestEngineRowsSlowWorkerKeepsItsSlot(t *testing.T) {
	set := randSet(t, 15, 300, 9, 80) // 19 blocks: two turns of the largest ring below
	n := set.Len()
	d := core.ScaledHellinger{}
	seq, _ := NewEngine(set, set, d, 1)
	want := engineMatrix(t, seq, n, n)
	defer func() { testHookBeforeClaim = nil }()
	for _, workers := range []int{2, 3} {
		slow := 2*workers + 1 // its slot's previous tenant is consumed long before
		testHookBeforeClaim = func(b int) {
			if b == slow {
				time.Sleep(20 * time.Millisecond)
			}
		}
		par, _ := NewEngine(set, set, d, workers)
		if got := engineMatrix(t, par, n, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: rows differ from sequential with block %d's worker held up", workers, slow)
		}
	}
}

// TestEngineRowsConsumerPanic: a consumer that panics at row t takes the
// panic to the caller of Rows or MapRows, and by then no worker is left
// behind — whether
// the workers were computing or waiting for a slot the consumer will
// never free.
func TestEngineRowsConsumerPanic(t *testing.T) {
	set := randSet(t, 12, 130, 9, 80)
	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}
	for _, workers := range []int{0, 1, 2, 4} {
		eng, _ := NewEngine(set, set, core.ScaledHellinger{}, workers)
		for _, at := range []int{0, 5, 16, 70, len(idx) - 1} {
			before := runtime.NumGoroutine()
			got := func() (got any) {
				defer func() { got = recover() }()
				eng.Rows(idx, func(t int, _ []float64) {
					if t == at {
						panic(at)
					}
				})
				return nil
			}()
			mapped := func() (got any) {
				defer func() { got = recover() }()
				MapRows(eng, idx, func(_ int, row Candidates) int { return len(row.Cols) }, func(t int, _ int) {
					if t == at {
						panic(at)
					}
				})
				return nil
			}()
			if got != at || mapped != at {
				t.Fatalf("workers=%d: consumer panicked at row %d, caller recovered %v from Rows, %v from MapRows", workers, at, got, mapped)
			}
			// A worker that has called wg.Done may still be exiting.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("workers=%d panic at %d: %d goroutines after Rows, %d before", workers, at, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func TestEngineRowsSubset(t *testing.T) {
	at := randSet(t, 21, 50, 8, 40)
	next := randSet(t, 22, 60, 8, 40)
	d := core.Dice{}
	eng, ok := NewEngine(at, next, d, 4)
	if !ok {
		t.Fatal("no engine")
	}
	idx := []int{3, 17, 4, 49, 0}
	var got [][]float64
	eng.Rows(idx, func(t int, row []float64) {
		got = append(got, append([]float64(nil), row...))
	})
	if len(got) != len(idx) {
		t.Fatalf("got %d rows, want %d", len(got), len(idx))
	}
	for t2, i := range idx {
		for j := 0; j < next.Len(); j++ {
			want := d.Dist(at.Sigs[i], next.Sigs[j])
			if got[t2][j] != want {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got[t2][j], want)
			}
		}
	}
}

// rebuild is the dense row a reducer's candidates stand for, over the
// columns [from, n): 1 at every column, then each candidate's distance.
// It reports false if a candidate lies outside the span or is listed
// twice, or if the two slices differ in length.
func rebuild(row Candidates, from, n int) ([]float64, bool) {
	out := make([]float64, n-from)
	for j := range out {
		out[j] = 1
	}
	seen := make([]bool, n-from)
	for k, j := range row.Cols {
		at := int(j) - from
		if at < 0 || at >= len(out) || seen[at] {
			return nil, false
		}
		seen[at] = true
		out[at] = row.Dist[k]
	}
	return out, len(row.Cols) == len(row.Dist)
}

// TestMapRowsMatchesRows: MapRows hands the consumer, in ascending t,
// exactly the value its reducer computes from the candidates of the row
// Rows delivers at t — the dense row rebuilt from them over the baseline
// of 1 is Rows' row, bit for bit — whatever the worker count and the
// job's length around the 16-row block, including a consumer slow
// enough to make the ring wrap.
func TestMapRowsMatchesRows(t *testing.T) {
	set := randSet(t, 16, 130, 9, 80)
	n := set.Len()
	// rowHash depends on every bit of the row and on t.
	rowHash := func(k int, row []float64) uint64 {
		h := uint64(k)
		for _, x := range row {
			h = h*1099511628211 ^ math.Float64bits(x)
		}
		return h
	}
	candHash := func(k int, row Candidates) uint64 {
		dense, ok := rebuild(row, 0, n)
		if !ok {
			return 0 // a hash no row has
		}
		return rowHash(k, dense)
	}
	for _, d := range []core.Distance{core.Jaccard{}, core.ScaledHellinger{}, wrapped{core.Dice{}}} {
		for _, workers := range []int{1, 2, 3, 8} {
			eng, _ := NewEngine(set, set, d, workers)
			for _, rows := range []int{0, 1, 15, 16, 17, 33, n} {
				idx := make([]int, rows)
				for t := range idx {
					idx[t] = t * 7 % n
				}
				var want []uint64
				eng.Rows(idx, func(k int, row []float64) { want = append(want, rowHash(k, row)) })
				var got []uint64
				inOrder := true
				MapRows(eng, idx, candHash, func(k int, h uint64) {
					inOrder = inOrder && k == len(got)
					if rows == n && workers > 1 {
						time.Sleep(20 * time.Microsecond)
					}
					got = append(got, h)
				})
				if !inOrder || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d rows=%d: MapRows values differ from Rows", d.Name(), workers, rows)
				}
			}
		}
	}
}

// TestMapTriangleMatchesRows: MapTriangle hands row i's reducer its
// candidates above the diagonal, in ascending i; rebuilt over the
// baseline of 1 they are Rows' row i from column i+1 on, bit for bit, at
// every worker count and for rows around the 16-row block — for every
// kernel, a distance in disguise and one that is not symmetric. Under
// the kernels the triangle is also the column below the diagonal: every
// registered distance is exactly symmetric.
func TestMapTriangleMatchesRows(t *testing.T) {
	dists := []core.Distance{wrapped{core.Dice{}}, oddDist{}}
	dists = append(dists, core.ExtendedDistances()...)
	for _, rows := range []int{0, 1, 15, 16, 17, 33, 130} {
		set := randSet(t, 17+int64(rows), rows, 9, 80)
		for _, d := range dists {
			seq, _ := NewEngine(set, set, d, 1)
			want := engineMatrix(t, seq, rows, rows)
			_, kernel := core.KernelKindOf(d)
			for _, workers := range []int{1, 2, 3, 8} {
				eng, _ := NewEngine(set, set, d, workers)
				var got [][]float64
				inOrder := true
				MapTriangle(eng, func(i int, row Candidates) []float64 {
					dense, _ := rebuild(row, i+1, rows)
					return dense
				}, func(i int, dense []float64) {
					inOrder = inOrder && i == len(got)
					got = append(got, dense)
				})
				if !inOrder || len(got) != rows {
					t.Fatalf("%s rows=%d workers=%d: %d rows delivered, in order %v", d.Name(), rows, workers, len(got), inOrder)
				}
				for i, dense := range got {
					if dense == nil || !reflect.DeepEqual(dense, want[i][i+1:]) {
						t.Fatalf("%s rows=%d workers=%d: triangle row %d differs from Rows", d.Name(), rows, workers, i)
					}
					for j := i + 1; kernel && j < rows; j++ {
						if math.Float64bits(want[j][i]) != math.Float64bits(dense[j-i-1]) {
							t.Fatalf("%s: d(%d,%d) = %v but d(%d,%d) = %v", d.Name(), j, i, want[j][i], i, j, dense[j-i-1])
						}
					}
				}
			}
		}
	}
}

// TestPairsWithinMatchesNaive: the pairs and their order are the naive
// loop's at every worker count (0 is GOMAXPROCS) and over a grid of
// thresholds from 0 to the dense path's 1, over 80 rows — five 16-row
// chunks.
func TestPairsWithinMatchesNaive(t *testing.T) {
	set := randSet(t, 31, 80, 8, 50)
	for _, d := range core.ExtendedDistances() {
		for _, threshold := range []float64{0, 0.25, 0.5, 0.8, 0.97, 1} {
			var want []Pair
			for i := 0; i < set.Len(); i++ {
				if set.Sigs[i].IsEmpty() {
					continue
				}
				for j := i + 1; j < set.Len(); j++ {
					if set.Sigs[j].IsEmpty() {
						continue
					}
					if dist := d.Dist(set.Sigs[i], set.Sigs[j]); dist <= threshold {
						want = append(want, Pair{I: i, J: j, Dist: dist})
					}
				}
			}
			for _, workers := range []int{0, 1, 2, 3, 8} {
				eng, ok := NewEngine(set, set, d, workers)
				if !ok {
					t.Fatalf("engine rejected %s", d.Name())
				}
				if got := eng.PairsWithin(threshold); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s threshold=%g workers=%d: got %d pairs want %d (or values differ)",
						d.Name(), threshold, workers, len(got), len(want))
				}
			}
		}
	}
}

func TestQuerierMatchesNaive(t *testing.T) {
	set := randSet(t, 41, 70, 8, 45)
	view := NewSetView(set)
	rng := rand.New(rand.NewSource(42))
	queries := []core.Signature{
		{}, // empty query: distance 0 to empty columns, 1 to the rest
		set.Sigs[1],
	}
	for q := 0; q < 6; q++ {
		ln := 1 + rng.Intn(8)
		weights := map[graph.NodeID]float64{}
		for len(weights) < ln {
			weights[graph.NodeID(rng.Intn(45))] = float64(1+rng.Intn(16)) / 4
		}
		queries = append(queries, core.FromWeights(weights, ln))
	}
	for _, d := range core.ExtendedDistances() {
		querier, ok := NewQuerier(d)
		if !ok {
			t.Fatalf("querier rejected %s", d.Name())
		}
		for qi, sig := range queries {
			for _, maxDist := range []float64{0.2, 0.3, 0.6, 0.9, 0.95, 1} {
				want := map[int]float64{}
				for j := range set.Sigs {
					if dist := d.Dist(sig, set.Sigs[j]); dist <= maxDist {
						want[j] = dist
					}
				}
				got := map[int]float64{}
				querier.Neighbors(view, sig, maxDist, func(j int, dist float64) {
					if _, dup := got[j]; dup {
						t.Fatalf("%s query %d: column %d visited twice", d.Name(), qi, j)
					}
					got[j] = dist
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s query %d maxDist=%g: neighbors mismatch: got %d want %d",
						d.Name(), qi, maxDist, len(got), len(want))
				}
			}
		}
	}
}

// wrapped hides a registered distance from core.KernelKindOf: same
// numbers, no kernel kind.
type wrapped struct{ core.Distance }

// oddDist breaks every closed form the kernels rely on: it reads only
// the two lengths, so disjoint pairs are not at 1, empty pairs are not
// at 0 (two empty signatures sit at 0.4), it is not symmetric, and it
// ranges past 1.
type oddDist struct{}

func (oddDist) Name() string { return "odd" }
func (oddDist) Dist(a, b core.Signature) float64 {
	return float64((3*len(a.Nodes)+len(b.Nodes)+2)%7) / 5
}

// TestUnregisteredDistanceMatchesNaive: a Distance without a kernel kind
// is served by the engine and the querier themselves, every cell a
// d.Dist call under the same scheduler — Rows (sequential and sharded),
// Dist, PairsWithin and Neighbors are bit-identical to the naive loops,
// for the six distances in disguise and for one of which nothing the
// kernels assume is true.
func TestUnregisteredDistanceMatchesNaive(t *testing.T) {
	rows := randSet(t, 51, 70, 8, 40)
	cols := randSet(t, 52, 90, 8, 40)
	colView := NewSetView(cols)
	dists := []core.Distance{oddDist{}}
	for _, d := range core.ExtendedDistances() {
		dists = append(dists, wrapped{d})
	}
	for _, d := range dists {
		if _, ok := core.KernelKindOf(d); ok {
			t.Fatalf("%s: the test distance has a kernel kind", d.Name())
		}
		want := naiveMatrix(d, rows, cols)
		for _, workers := range []int{1, 4} {
			eng, _ := NewEngine(rows, cols, d, workers)
			if got := engineMatrix(t, eng, rows.Len(), cols.Len()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: Rows differ from the naive matrix", d.Name(), workers)
			}
		}
		eng, _ := NewEngineOn(NewSetView(rows), colView, d, 0)
		for i := range want {
			for j := range want[i] {
				if got := eng.Dist(i, j); got != want[i][j] {
					t.Fatalf("%s: Dist(%d,%d) = %v, want %v", d.Name(), i, j, got, want[i][j])
				}
			}
		}
		within, _ := NewEngine(cols, cols, d, 3)
		for _, maxDist := range []float64{0.3, 0.7, 1} {
			var wantPairs []Pair
			for i := 0; i < cols.Len(); i++ {
				for j := i + 1; j < cols.Len(); j++ {
					if cols.Sigs[i].IsEmpty() || cols.Sigs[j].IsEmpty() {
						continue
					}
					if dist := d.Dist(cols.Sigs[i], cols.Sigs[j]); dist <= maxDist {
						wantPairs = append(wantPairs, Pair{I: i, J: j, Dist: dist})
					}
				}
			}
			if got := within.PairsWithin(maxDist); !reflect.DeepEqual(got, wantPairs) {
				t.Fatalf("%s maxDist=%g: PairsWithin got %d pairs, want %d (or values differ)",
					d.Name(), maxDist, len(got), len(wantPairs))
			}
		}
		querier, _ := NewQuerier(d)
		for _, sig := range []core.Signature{{}, rows.Sigs[1], rows.Sigs[2], cols.Sigs[3]} {
			for _, maxDist := range []float64{0.3, 1} {
				var got, wantHits []Pair // I unused: ascending columns with their distances
				for j := range cols.Sigs {
					if dist := d.Dist(sig, cols.Sigs[j]); dist <= maxDist {
						wantHits = append(wantHits, Pair{J: j, Dist: dist})
					}
				}
				probed := querier.Neighbors(colView, sig, maxDist, func(j int, dist float64) {
					got = append(got, Pair{J: j, Dist: dist})
				})
				if !reflect.DeepEqual(got, wantHits) || probed != cols.Len() {
					t.Fatalf("%s maxDist=%g: Neighbors visited %d of %d probed, want %d of %d",
						d.Name(), maxDist, len(got), probed, len(wantHits), cols.Len())
				}
			}
		}
		querier.Release()
	}
}

// TestEngineDistPairs exercises the sequential per-pair path used by the
// persistence/masquerade call sites, on a row engine and on a pointwise
// one, which builds no index and refuses row jobs.
func TestEngineDistPairs(t *testing.T) {
	at := randSet(t, 61, 40, 8, 30)
	next := randSet(t, 62, 40, 8, 30)
	for _, d := range append(core.ExtendedDistances(), oddDist{}) {
		eng, ok := NewEngine(at, next, d, 0)
		if !ok {
			t.Fatalf("engine rejected %s", d.Name())
		}
		pointwise := NewPointwise(at, next, d)
		for i := 0; i < at.Len(); i++ {
			for j := 0; j < next.Len(); j++ {
				want := d.Dist(at.Sigs[i], next.Sigs[j])
				if got := eng.Dist(i, j); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %v, want %v", d.Name(), i, j, got, want)
				}
				if got := pointwise.Dist(i, j); got != want {
					t.Fatalf("%s: pointwise Dist(%d,%d) = %v, want %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
	pointwise := NewPointwise(at, at, core.Jaccard{})
	defer func() {
		if recover() == nil {
			t.Fatal("Rows on a pointwise engine did not panic")
		}
	}()
	pointwise.Rows([]int{0}, func(int, []float64) {})
}

// TestPairsWithinPrefilterIdentical: below 1, PairsWithin visits only
// the pairs its posting lists put forward and never scores a disjoint
// pair. That candidate filter must drop nothing: the pairs, their order
// and their distance bits equal those of the same distance in disguise,
// which scores every cell, and those of the naive scan.
func TestPairsWithinPrefilterIdentical(t *testing.T) {
	set := randSet(t, 77, 120, 10, 160)
	for _, d := range core.ExtendedDistances() {
		for _, maxDist := range []float64{0.0, 0.25, 0.5, 0.8, 0.97} {
			on, ok := NewEngine(set, set, d, 2)
			if !ok {
				t.Fatalf("%s: no engine", d.Name())
			}
			off, _ := NewEngine(set, set, wrapped{d}, 2)
			got := on.PairsWithin(maxDist)
			want := off.PairsWithin(maxDist)
			if len(got) != len(want) {
				t.Fatalf("%s maxDist=%v: candidate path %d pairs, full scan %d",
					d.Name(), maxDist, len(got), len(want))
			}
			for i := range got {
				if got[i].I != want[i].I || got[i].J != want[i].J ||
					math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s maxDist=%v: pair %d mismatch %+v vs %+v",
						d.Name(), maxDist, i, got[i], want[i])
				}
			}
			var naive []Pair
			for i := 0; i < set.Len(); i++ {
				for j := i + 1; j < set.Len(); j++ {
					a, b := set.Sigs[i], set.Sigs[j]
					if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
						continue
					}
					if dist := d.Dist(a, b); dist <= maxDist {
						naive = append(naive, Pair{I: i, J: j, Dist: dist})
					}
				}
			}
			if !reflect.DeepEqual(naive, got) {
				t.Fatalf("%s maxDist=%v: engine %d pairs, naive %d (or values differ)",
					d.Name(), maxDist, len(got), len(naive))
			}
		}
	}
}

// TestQuerierPrefilterIdentical: below 1, Neighbors probes only the
// inverted-index candidates (and the empty columns when the query is
// empty). The visits, compared as sets since the candidate order is
// unspecified, equal those of the same distance in disguise, which
// probes every column.
func TestQuerierPrefilterIdentical(t *testing.T) {
	set := randSet(t, 99, 90, 10, 120)
	view := NewSetView(set)
	rng := rand.New(rand.NewSource(5))
	type hit struct {
		j    int
		bits uint64
	}
	collect := func(q *Querier, sig core.Signature, maxDist float64) []hit {
		var hits []hit
		q.Neighbors(view, sig, maxDist, func(j int, dist float64) {
			hits = append(hits, hit{j, math.Float64bits(dist)})
		})
		return hits
	}
	for _, d := range core.ExtendedDistances() {
		on, _ := NewQuerier(d)
		off, _ := NewQuerier(wrapped{d})
		for trial := 0; trial < 40; trial++ {
			var sig core.Signature
			if rng.Intn(8) != 0 {
				ln := 1 + rng.Intn(12)
				weights := map[graph.NodeID]float64{}
				for len(weights) < ln {
					weights[graph.NodeID(rng.Intn(40)+rng.Intn(100))] = float64(1+rng.Intn(16)) / 4
				}
				sig = core.FromWeights(weights, ln)
			}
			for _, maxDist := range []float64{0.2, 0.6, 0.95} {
				got := collect(on, sig, maxDist)
				want := collect(off, sig, maxDist)
				if len(got) != len(want) {
					t.Fatalf("%s maxDist=%v: candidate path visited %d, full scan %d", d.Name(), maxDist, len(got), len(want))
				}
				seen := map[hit]int{}
				for _, h := range want {
					seen[h]++
				}
				for _, h := range got {
					if seen[h] == 0 {
						t.Fatalf("%s maxDist=%v: candidate-path visit %+v missing from the full scan", d.Name(), maxDist, h)
					}
					seen[h]--
				}
			}
		}
		on.Release()
		off.Release()
	}
}
