package distmat

import (
	"math/rand"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// benchSet mirrors the sigbench pairwise workload shape: n signatures of
// up to maxLen entries over a node universe of span IDs, no empties.
func benchSet(seed int64, n, maxLen, span int) *core.SignatureSet {
	rng := rand.New(rand.NewSource(seed))
	sources := make([]graph.NodeID, n)
	sigs := make([]core.Signature, n)
	for i := range sources {
		sources[i] = graph.NodeID(10_000 + i)
		ln := 1 + rng.Intn(maxLen)
		weights := map[graph.NodeID]float64{}
		for len(weights) < ln {
			weights[graph.NodeID(rng.Intn(span))] = float64(1+rng.Intn(16)) / 4
		}
		sigs[i] = core.FromWeights(weights, ln)
	}
	set, err := core.NewSignatureSet("bench", 0, sources, sigs)
	if err != nil {
		panic(err)
	}
	return set
}

// benchRows runs the full all-rows job on a prebuilt engine and reports
// ns/pair over the n·n cell population.
func benchRows(b *testing.B, d core.Distance) {
	set := benchSet(7, 300, 20, 400)
	view := NewSetView(set)
	eng, ok := NewEngineOn(view, view, d, 1)
	if !ok {
		b.Fatalf("no engine for %s", d.Name())
	}
	n := set.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var sink float64
	b.ResetTimer()
	for b.Loop() {
		eng.Rows(idx, func(t int, row []float64) { sink += row[t] })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/pair")
	_ = sink
}

func BenchmarkRowsJaccard(b *testing.B) { benchRows(b, core.Jaccard{}) }
func BenchmarkRowsCosine(b *testing.B)  { benchRows(b, core.Cosine{}) }
func BenchmarkRowsDice(b *testing.B)    { benchRows(b, core.Dice{}) }
func BenchmarkRowsSDice(b *testing.B)   { benchRows(b, core.ScaledDice{}) }
func BenchmarkRowsSHel(b *testing.B)    { benchRows(b, core.ScaledHellinger{}) }

// BenchmarkPairsWithinJaccard measures the thresholded path.
func BenchmarkPairsWithinJaccard(b *testing.B) {
	set := benchSet(7, 300, 20, 400)
	view := NewSetView(set)
	eng, ok := NewEngineOn(view, view, core.Jaccard{}, 1)
	if !ok {
		b.Fatal("no engine")
	}
	var sink int
	b.ResetTimer()
	for b.Loop() {
		sink += len(eng.PairsWithin(0.5))
	}
	_ = sink
}
