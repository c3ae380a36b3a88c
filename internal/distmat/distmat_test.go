package distmat

import (
	"math/rand"
	"reflect"
	"testing"

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
// the worker count.
func TestEngineParallelIdenticalToSequential(t *testing.T) {
	set := randSet(t, 11, 130, 9, 80)
	d := core.ScaledHellinger{}
	seq, ok := NewEngine(set, set, d, 1)
	if !ok {
		t.Fatal("no engine")
	}
	wantM := engineMatrix(t, seq, set.Len(), set.Len())
	for _, workers := range []int{2, 3, 7, 16} {
		par, ok := NewEngine(set, set, d, workers)
		if !ok {
			t.Fatal("no engine")
		}
		var order []int
		m := make([][]float64, set.Len())
		idx := make([]int, set.Len())
		for i := range idx {
			idx[i] = i
		}
		par.Rows(idx, func(i int, row []float64) {
			order = append(order, i)
			m[i] = append([]float64(nil), row...)
		})
		for i := range order {
			if order[i] != i {
				t.Fatalf("workers=%d: rows delivered out of order: %v", workers, order)
			}
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Fatalf("workers=%d: parallel matrix differs from sequential", workers)
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

func TestPairsWithinMatchesNaive(t *testing.T) {
	set := randSet(t, 31, 80, 8, 50)
	for _, d := range core.ExtendedDistances() {
		for _, threshold := range []float64{0.25, 0.8, 1} {
			eng, ok := NewEngine(set, set, d, 3)
			if !ok {
				t.Fatalf("engine rejected %s", d.Name())
			}
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
			got := eng.PairsWithin(threshold)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s threshold=%g: got %d pairs want %d (or values differ)",
					d.Name(), threshold, len(got), len(want))
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
			for _, maxDist := range []float64{0.3, 0.9, 1} {
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
// persistence/masquerade call sites.
func TestEngineDistPairs(t *testing.T) {
	at := randSet(t, 61, 40, 8, 30)
	next := randSet(t, 62, 40, 8, 30)
	for _, d := range core.ExtendedDistances() {
		eng, ok := NewEngine(at, next, d, 0)
		if !ok {
			t.Fatalf("engine rejected %s", d.Name())
		}
		for i := 0; i < at.Len(); i++ {
			for j := 0; j < next.Len(); j++ {
				want := d.Dist(at.Sigs[i], next.Sigs[j])
				if got := eng.Dist(i, j); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %v, want %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
}
