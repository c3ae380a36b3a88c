package eval

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/graph"
)

// aucSortAndWalk is the reference Query.AUC is held to, bit for bit:
// rank every candidate, walk the tie groups, credit each group's
// positives with the negatives after it and half of those inside it.
func aucSortAndWalk(q *Query) float64 {
	type sc struct {
		s   float64
		pos bool
	}
	all := make([]sc, len(q.Scores))
	for i := range q.Scores {
		all[i] = sc{q.Scores[i], q.Positive[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	var u float64
	var pos, neg int
	for i := 0; i < len(all); {
		j := i
		tiePos, tieNeg := 0, 0
		for j < len(all) && all[j].s == all[i].s {
			if all[j].pos {
				tiePos++
			} else {
				tieNeg++
			}
			j++
		}
		negAfter := 0
		for k := j; k < len(all); k++ {
			if !all[k].pos {
				negAfter++
			}
		}
		u += float64(tiePos) * (float64(negAfter) + 0.5*float64(tieNeg))
		pos += tiePos
		neg += tieNeg
		i = j
	}
	return u / (float64(pos) * float64(neg))
}

func TestAUCMatchesSortAndWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// Each draw picks scores from a small pool (heavy ties), a pool of
	// one (all equal), the two ends of the range, or the continuum.
	draw := []func() float64{
		func() float64 { return float64(rng.Intn(4)) / 3 },
		func() float64 { return 0.5 },
		func() float64 { return float64(rng.Intn(2)) },
		rng.Float64,
		func() float64 { return [...]float64{0, math.Copysign(0, -1), 1, math.Inf(1)}[rng.Intn(4)] },
	}
	check := func(q *Query) {
		t.Helper()
		got, err := q.AUC()
		if err != nil {
			t.Fatal(err)
		}
		if want := aucSortAndWalk(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AUC = %v (%#x), sort-and-walk %v (%#x) on %v", got, math.Float64bits(got), want, math.Float64bits(want), q)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(60)
		q := Query{Scores: make([]float64, n), Positive: make([]bool, n)}
		score := draw[trial%len(draw)]
		for i := range q.Scores {
			q.Scores[i] = score()
		}
		// 1 … n−1 positives, placed at random.
		for _, i := range rng.Perm(n)[:1+rng.Intn(n-1)] {
			q.Positive[i] = true
		}
		check(&q)
	}
	// Every positive count on one tied-up query, and a row long enough
	// that the positives no longer fit a small buffer.
	const n = 300
	q := Query{Scores: make([]float64, n), Positive: make([]bool, n)}
	for i := range q.Scores {
		q.Scores[i] = float64(rng.Intn(7)) / 6
	}
	for _, i := range rng.Perm(n)[:n-1] {
		q.Positive[i] = true
		check(&q)
	}
}

func TestAUCRejections(t *testing.T) {
	cases := []struct {
		q    Query
		want string
	}{
		{Query{Scores: []float64{1}, Positive: []bool{true, false}}, "eval: query has 1 scores but 2 labels"},
		{Query{Scores: []float64{1, 2}, Positive: []bool{false, false}}, "eval: query has no positive candidate"},
		{Query{Scores: []float64{1, 2}, Positive: []bool{true, true}}, "eval: query has no negative candidate"},
		{Query{Scores: []float64{1, math.NaN()}, Positive: []bool{true, false}}, "eval: query score 1 is NaN"},
		{Query{Scores: []float64{math.NaN(), 2}, Positive: []bool{true, false}}, "eval: query score 0 is NaN"},
	}
	for i, c := range cases {
		if _, err := c.q.AUC(); err == nil || err.Error() != c.want {
			t.Errorf("case %d: AUC error %v, want %q", i, err, c.want)
		}
		if _, err := MeanAUC([]Query{c.q}); err == nil || err.Error() != "eval: query 0: "+c.want {
			t.Errorf("case %d: MeanAUC error %v", i, err)
		}
	}
}

// enterpriseSets computes top-talker signatures for the first two
// windows of a small datagen capture.
func enterpriseSets(tb testing.TB, hosts, externals int) (at, next *core.SignatureSet) {
	tb.Helper()
	cfg := datagen.DefaultEnterpriseConfig(26)
	cfg.LocalHosts, cfg.ExternalHosts, cfg.Windows = hosts, externals, 2
	cfg.Communities, cfg.MultiusageIndividuals = 4, 4
	data, err := datagen.GenerateEnterprise(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sets := make([]*core.SignatureSet, 2)
	for i, w := range data.Windows[:2] {
		if sets[i], err = core.ComputeSet(core.TopTalkers{}, w, core.DefaultSources(w), 10); err != nil {
			tb.Fatal(err)
		}
	}
	return sets[0], sets[1]
}

// withSources returns set with sources appended, source v's signature
// holding the nodes members[v] (none: an empty signature).
func withSources(t *testing.T, set *core.SignatureSet, sources []graph.NodeID, members [][]graph.NodeID) *core.SignatureSet {
	t.Helper()
	out := slices.Clone(set.Sigs)
	for v := range sources {
		w := map[graph.NodeID]float64{}
		for k, u := range members[v] {
			w[u] = float64(k + 1)
		}
		out = append(out, core.FromWeights(w, len(w)))
	}
	grown, err := core.NewSignatureSet(set.Scheme, set.Window, append(slices.Clone(set.Sources), sources...), out)
	if err != nil {
		t.Fatal(err)
	}
	return grown
}

// nanAfter is a custom distance that scores NaN past the first sources:
// the error the statistic reports is the one MeanAUC does.
type nanAfter struct{}

func (nanAfter) Name() string { return "nan" }
func (nanAfter) Dist(a, b core.Signature) float64 {
	if a.Len() > 3 && b.Len() > 3 && a.Nodes[0] == b.Nodes[0] {
		return math.NaN()
	}
	return core.Jaccard{}.Dist(a, b)
}

// TestSelfRetrievalAUCMatchesQueries: the statistic folded row by row
// over the candidates is the mean over the materialised queries, bit for
// bit, under every distance and one without a kernel — also when next
// lacks some of at's sources, which shifts the positive's column and
// drops rows, and for the rows the closed forms treat apart: a source
// empty in both windows (its candidates the empty columns, its positive
// among them at 0), one empty in the first window only and one whose
// two signatures share no node (both positives at exactly 1). A
// distance that scores NaN fails both ways with the same error.
func TestSelfRetrievalAUCMatchesQueries(t *testing.T) {
	at, full := enterpriseSets(t, 60, 600)
	var top graph.NodeID // above every source and node of the two sets
	for _, set := range []*core.SignatureSet{at, full} {
		for i, v := range set.Sources {
			top = max(top, v, slices.Max(append([]graph.NodeID{0}, set.Sigs[i].Nodes...)))
		}
	}
	added := []graph.NodeID{top + 1, top + 2, top + 3}
	at = withSources(t, at, added, [][]graph.NodeID{nil, nil, {top + 10, top + 11}})
	full = withSources(t, full, added, [][]graph.NodeID{nil, {top + 11}, {top + 12}})
	// next without every third source of at.
	var sources []graph.NodeID
	var sigs []core.Signature
	for j, v := range full.Sources {
		if _, ok := at.IndexOf(v); !ok || j%3 != 0 {
			sources = append(sources, v)
			sigs = append(sigs, full.Sigs[j])
		}
	}
	thinned, err := core.NewSignatureSet(full.Scheme, full.Window, sources, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if thinned.Len() >= full.Len() {
		t.Fatal("no source removed from next")
	}
	for _, next := range []*core.SignatureSet{full, thinned} {
		for _, d := range append(core.ExtendedDistances(), hidden{core.ScaledHellinger{}}) {
			got, err := SelfRetrievalAUC(d, at, next)
			if err != nil {
				t.Fatal(err)
			}
			queries := SelfRetrievalQueries(d, at, next)
			want, err := MeanAUC(queries)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s over %d queries: SelfRetrievalAUC %v, MeanAUC(SelfRetrievalQueries) %v", d.Name(), len(queries), got, want)
			}
			oracle := 0.0
			for i := range queries {
				oracle += aucSortAndWalk(&queries[i])
			}
			if oracle /= float64(len(queries)); math.Float64bits(got) != math.Float64bits(oracle) {
				t.Errorf("%s: SelfRetrievalAUC %v, sort-and-walk mean %v", d.Name(), got, oracle)
			}
		}
	}
	_, err = SelfRetrievalAUC(nanAfter{}, at, full)
	_, want := MeanAUC(SelfRetrievalQueries(nanAfter{}, at, full))
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("a NaN score: SelfRetrievalAUC error %v, MeanAUC's %v", err, want)
	}
}
