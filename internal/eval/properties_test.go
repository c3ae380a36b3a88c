package eval

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/stats"
)

// makeSet builds a SignatureSet from (source → weighted members).
func makeSet(t *testing.T, scheme string, window int, sigs map[graph.NodeID]map[graph.NodeID]float64) *core.SignatureSet {
	t.Helper()
	var sources []graph.NodeID
	for v := range sigs {
		sources = append(sources, v)
	}
	// Deterministic order.
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			if sources[j] < sources[i] {
				sources[i], sources[j] = sources[j], sources[i]
			}
		}
	}
	out := make([]core.Signature, len(sources))
	for i, v := range sources {
		out[i] = core.FromWeights(sigs[v], 10)
	}
	set, err := core.NewSignatureSet(scheme, window, sources, out)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPersistence(t *testing.T) {
	at := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 11: 1},
		2: {20: 1},
	})
	next := makeSet(t, "tt", 1, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 11: 1}, // unchanged → persistence 1
		3: {30: 1},        // new node, not in at
	})
	d := core.Jaccard{}
	p := Persistence(d, at, next)
	if len(p) != 1 {
		t.Fatalf("persistence over %d nodes, want 1", len(p))
	}
	if p[1] != 1 {
		t.Fatalf("persistence(1) = %g", p[1])
	}
	sum := PersistenceSummary(d, at, next)
	if sum.N != 1 || sum.Mean != 1 {
		t.Fatalf("summary %v", sum)
	}
}

func TestUniqueness(t *testing.T) {
	set := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1},
		2: {10: 1}, // identical to 1
		3: {30: 1}, // disjoint
	})
	d := core.Jaccard{}
	sum := UniquenessSummary(d, set, 0, 1)
	// Ordered pairs: (1,2),(2,1) dist 0; (1,3),(3,1),(2,3),(3,2) dist 1.
	if sum.N != 6 {
		t.Fatalf("pairs = %d", sum.N)
	}
	if math.Abs(sum.Mean-4.0/6) > 1e-12 {
		t.Fatalf("mean = %g", sum.Mean)
	}
	// Sampled variant still lands near the exact mean.
	sampled := UniquenessSummary(d, set, 3, 99)
	if sampled.N != 3 {
		t.Fatalf("sampled pairs = %d", sampled.N)
	}
	// Tiny sets short-circuit.
	single := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{1: {10: 1}})
	if UniquenessSummary(d, single, 0, 1).N != 0 {
		t.Fatal("singleton uniqueness should be empty")
	}
}

func TestRobustness(t *testing.T) {
	clean := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 11: 1},
	})
	hat := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 12: 1}, // half overlap
	})
	d := core.Jaccard{}
	r := Robustness(d, clean, hat)
	want := 1 - (1 - 1.0/3)
	if math.Abs(r[1]-want) > 1e-12 {
		t.Fatalf("robustness = %g, want %g", r[1], want)
	}
	if RobustnessSummary(d, clean, hat).N != 1 {
		t.Fatal("summary count wrong")
	}
}

func TestEllipse(t *testing.T) {
	at := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1}, 2: {20: 1},
	})
	e := EllipseFor(core.Jaccard{}, at, at, 0, 1)
	if e.Scheme != "tt" || e.Distance != "jaccard" {
		t.Fatalf("metadata wrong: %+v", e)
	}
	if e.Persistence.Mean != 1 || e.Uniqueness.Mean != 1 {
		t.Fatalf("values wrong: %s", e)
	}
	if e.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSelfRetrieval(t *testing.T) {
	// Three nodes with distinctive, stable signatures: retrieval is
	// perfect.
	sigs := map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 11: 0.5},
		2: {20: 1, 21: 0.5},
		3: {30: 1, 31: 0.5},
	}
	at := makeSet(t, "tt", 0, sigs)
	next := makeSet(t, "tt", 1, sigs)
	d := core.ScaledHellinger{}
	auc, err := SelfRetrievalAUC(d, at, next)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUC = %g, want 1", auc)
	}
	queries := SelfRetrievalQueries(d, at, next)
	if len(queries) != 3 {
		t.Fatalf("queries = %d", len(queries))
	}
	// No overlap at all: every distance ties at 1 → AUC ½.
	shuffled := makeSet(t, "tt", 1, map[graph.NodeID]map[graph.NodeID]float64{
		1: {90: 1}, 2: {91: 1}, 3: {92: 1},
	})
	auc, err = SelfRetrievalAUC(d, at, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("no-signal AUC = %g, want 0.5", auc)
	}
	// Disjoint source sets error out.
	other := makeSet(t, "tt", 1, map[graph.NodeID]map[graph.NodeID]float64{9: {1: 1}})
	if _, err := SelfRetrievalAUC(d, at, other); err == nil {
		t.Fatal("disjoint windows accepted")
	}
}

func TestSetRetrievalQueries(t *testing.T) {
	set := makeSet(t, "tt", 0, map[graph.NodeID]map[graph.NodeID]float64{
		1: {10: 1, 11: 1},
		2: {10: 1, 11: 1}, // sibling of 1
		3: {30: 1},
		4: {40: 1},
	})
	groups := [][]graph.NodeID{{1, 2}}
	queries := SetRetrievalQueries(core.Jaccard{}, set, groups)
	// One query per group member.
	if len(queries) != 2 {
		t.Fatalf("queries = %d", len(queries))
	}
	for _, q := range queries {
		// Self excluded: 3 candidates, 1 positive.
		if len(q.Scores) != 3 {
			t.Fatalf("candidates = %d", len(q.Scores))
		}
		auc, err := q.AUC()
		if err != nil {
			t.Fatal(err)
		}
		if auc != 1 {
			t.Fatalf("sibling retrieval AUC = %g", auc)
		}
	}
	// Groups whose members lack signatures yield no queries.
	if got := SetRetrievalQueries(core.Jaccard{}, set, [][]graph.NodeID{{8, 9}}); len(got) != 0 {
		t.Fatalf("ghost group produced %d queries", len(got))
	}
}

// TestUniquenessSummaryWorkers: the exact summary has the same bits at
// every worker count (the engine runs on GOMAXPROCS workers: as the test
// found it, then 1, 2, 3 and 8) and for row counts around the engine's
// 16-row block, and it agrees with a Welford chain over the naive
// double loop — N, Min and Max exactly, Mean and StdDev to 1e-12
// relative.
func TestUniquenessSummaryWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 15, 16, 17, 33} {
		sigs := map[graph.NodeID]map[graph.NodeID]float64{}
		for v := range n {
			w := map[graph.NodeID]float64{}
			for range 1 + rng.Intn(8) {
				w[graph.NodeID(100+rng.Intn(30))] = float64(1+rng.Intn(16)) / 4
			}
			sigs[graph.NodeID(v)] = w
		}
		set := makeSet(t, "tt", 0, sigs)
		for _, d := range []core.Distance{core.Jaccard{}, core.ScaledHellinger{}} {
			var chain stats.Accumulator
			for i := range set.Sigs {
				for j := range set.Sigs {
					if i != j {
						chain.Add(d.Dist(set.Sigs[i], set.Sigs[j]))
					}
				}
			}
			want := chain.Summarize()
			var first stats.Summary
			for k, workers := range []int{procs, 1, 2, 3, 8} {
				runtime.GOMAXPROCS(workers)
				got := UniquenessSummary(d, set, 0, 1)
				if k == 0 {
					first = got
				} else if got != first {
					t.Fatalf("%s n=%d: %d workers give %+v, %d gave %+v", d.Name(), n, workers, got, procs, first)
				}
				if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
					!near(got.Mean, want.Mean) || !near(got.StdDev, want.StdDev) {
					t.Fatalf("%s n=%d workers=%d: %+v, naive chain %+v", d.Name(), n, workers, got, want)
				}
			}
		}
	}
}
