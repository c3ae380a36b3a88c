package graphsig_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"graphsig"
)

// fixtureWindows builds a small two-window bipartite dataset via the
// facade only.
func fixtureWindows(t *testing.T) (*graphsig.Universe, *graphsig.Graph, *graphsig.Graph) {
	t.Helper()
	u := graphsig.NewUniverse()
	mk := func(idx int, rows [][3]any) *graphsig.Graph {
		b := graphsig.NewGraphBuilder(u, idx)
		for _, r := range rows {
			if err := b.AddLabeled(r[0].(string), graphsig.Part1, r[1].(string), graphsig.Part2, r[2].(float64)); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	g0 := mk(0, [][3]any{
		{"h1", "e1", 5.0}, {"h1", "e2", 2.0},
		{"h2", "e3", 4.0}, {"h2", "e1", 1.0},
		{"h3", "e4", 3.0}, {"h3", "e5", 3.0},
	})
	g1 := mk(1, [][3]any{
		{"h1", "e1", 6.0}, {"h1", "e2", 1.0},
		{"h2", "e3", 5.0},
		{"h3", "e4", 2.0}, {"h3", "e5", 4.0},
	})
	return u, g0, g1
}

func TestFacadeDistances(t *testing.T) {
	if len(graphsig.AllDistances()) != 4 || len(graphsig.ExtendedDistances()) != 6 {
		t.Fatal("distance menus wrong")
	}
	_, g0, _ := fixtureWindows(t)
	set, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []graphsig.Distance{
		graphsig.DistJaccard(), graphsig.DistDice(), graphsig.DistSDice(),
		graphsig.DistSHel(), graphsig.DistCosine(), graphsig.DistWeightedJaccard(),
	} {
		if got := d.Dist(set.Sigs[0], set.Sigs[0]); got != 0 {
			t.Fatalf("%s self-distance %g", d.Name(), got)
		}
	}
}

func TestFacadeBlendAndCompare(t *testing.T) {
	_, g0, g1 := fixtureWindows(t)
	blend := graphsig.BlendSchemes(graphsig.TopTalkers(), graphsig.UnexpectedTalkers(), 0.5)
	set, err := graphsig.ComputeSignatures(blend, g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("blend set size %d", set.Len())
	}
	diff, err := graphsig.CompareSchemesAUC(graphsig.DistSHel(),
		graphsig.TopTalkers(), graphsig.UnexpectedTalkers(), g0, g1, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Queries != 3 {
		t.Fatalf("paired queries = %d", diff.Queries)
	}
}

func TestFacadeSerializationRoundTrip(t *testing.T) {
	u, g0, _ := fixtureWindows(t)
	set, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphsig.WriteSignatures(&buf, set, u); err != nil {
		t.Fatal(err)
	}
	got, err := graphsig.ReadSignatures(&buf, graphsig.NewUniverse())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != set.Len() || got.Scheme != "tt" {
		t.Fatalf("round trip: %d sigs, scheme %s", got.Len(), got.Scheme)
	}
}

func TestFacadeNeighborsAndApprox(t *testing.T) {
	u, g0, _ := fixtureWindows(t)
	set, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := u.Lookup("h1")
	nn, err := graphsig.NearestNeighbors(graphsig.DistSHel(), set, h1, 2)
	if err != nil || len(nn) != 2 {
		t.Fatalf("neighbours: %v %v", nn, err)
	}
	pairs, err := graphsig.DetectMultiusageApprox(set, 1.0, 16, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// h1 and h2 share e1; approximate scan may surface them, and must
	// never invent a pair that the exact scan would reject.
	exact, err := graphsig.DetectMultiusage(graphsig.DistJaccard(), set, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	exactSet := map[[2]graphsig.NodeID]bool{}
	for _, p := range exact {
		exactSet[[2]graphsig.NodeID{p.A, p.B}] = true
	}
	for _, p := range pairs {
		if !exactSet[[2]graphsig.NodeID{p.A, p.B}] {
			t.Fatalf("approx invented pair %+v", p)
		}
	}
}

func TestFacadeDeAnonymize(t *testing.T) {
	_, g0, g1 := fixtureWindows(t)
	ref, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g1, 3)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := graphsig.DeAnonymize(graphsig.DistSHel(), ref, cur, true)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[graphsig.NodeID]graphsig.NodeID{}
	for _, v := range ref.Sources {
		truth[v] = v // identity relabelling
	}
	acc, err := graphsig.DeAnonymizationAccuracy(matches, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("identity matching accuracy = %g", acc)
	}
}

func TestFacadeTelephone(t *testing.T) {
	cfg := graphsig.DefaultTelephoneConfig(3)
	cfg.Subscribers = 80
	cfg.Businesses = 8
	cfg.Communities = 6
	cfg.Windows = 2
	data, err := graphsig.GenerateTelephone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Windows) != 2 {
		t.Fatalf("windows = %d", len(data.Windows))
	}
	set, err := graphsig.ComputeSignatures(graphsig.RandomWalk(0.1, 3), data.Windows[0], 6)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no call-graph signatures")
	}
}

func TestFacadeGraphHelpers(t *testing.T) {
	u, g0, _ := fixtureWindows(t)
	stats := graphsig.SummarizeGraph(g0)
	if stats.Edges != 6 {
		t.Fatalf("edges = %d", stats.Edges)
	}
	g, err := graphsig.GraphFromEdges(u, 5, g0.Edges())
	if err != nil || g.Index() != 5 || g.NumEdges() != 6 {
		t.Fatalf("GraphFromEdges: %v %v", g, err)
	}
	sig, err := graphsig.SignatureOf(graphsig.TopTalkers(), g0, mustLookupLabel(t, u, "h1"), 2)
	if err != nil || sig.Len() != 2 {
		t.Fatalf("SignatureOf: %v %v", sig, err)
	}
	set, err := graphsig.ComputeSignaturesFor(graphsig.TopTalkers(), g0,
		[]graphsig.NodeID{mustLookupLabel(t, u, "h1")}, 2)
	if err != nil || set.Len() != 1 {
		t.Fatalf("ComputeSignaturesFor: %v", err)
	}
	masq, m, err := graphsig.SimulateMasquerade(g0, set.Sources, 0, 1)
	if err != nil || len(m.Mapping) != 0 || masq.NumEdges() != g0.NumEdges() {
		t.Fatalf("no-op masquerade wrong: %v", err)
	}
}

func TestFacadeWatchlist(t *testing.T) {
	u, g0, g1 := fixtureWindows(t)
	archive, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := graphsig.NewWatchlist()
	if err := w.AddSet(archive, u.Label); err != nil {
		t.Fatal(err)
	}
	current, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), g1, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := w.Screen(graphsig.DistSHel(), current, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Every host behaves like its own archived self.
	h1, _ := u.Lookup("h1")
	got, ok := hits[h1]
	if !ok || got[0].Individual != "h1" {
		t.Fatalf("h1 hits = %+v", got)
	}
}

func mustLookupLabel(t *testing.T, u *graphsig.Universe, label string) graphsig.NodeID {
	t.Helper()
	id, ok := u.Lookup(label)
	if !ok {
		t.Fatalf("label %q missing", label)
	}
	return id
}

// disguised hides a registered distance from the pairwise engine's kind
// lookup: the numbers of d, served the way a user's own Distance is.
type disguised struct{ graphsig.Distance }

// TestFacadeCustomDistanceEqualsRegistered runs every eval/apps entry
// point the facade exposes once with each registered distance and once
// with the same distance in disguise — the engine's kernel path against
// its d.Dist path — and requires equal results: bit for bit, except
// where the entry point itself folds a map in iteration order and so
// differs in the last bits between two runs with one and the same d.
func TestFacadeCustomDistanceEqualsRegistered(t *testing.T) {
	cfg := graphsig.DefaultEnterpriseConfig(17)
	cfg.LocalHosts = 30
	cfg.ExternalHosts = 300
	cfg.Communities = 3
	cfg.Windows = 2
	cfg.MultiusageIndividuals = 3
	data, err := graphsig.GenerateEnterprise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tt := graphsig.TopTalkers()
	at, err := graphsig.ComputeSignatures(tt, data.Windows[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	masqWin, _, err := graphsig.SimulateMasquerade(data.Windows[1], at.Sources, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	next, err := graphsig.ComputeSignatures(tt, masqWin, 8)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		v   any
		err error
	}
	ok := func(v any, err error) result { return result{v, err} }
	entryPoints := []struct {
		name     string
		mapOrder bool // folds a map: compared to 9 significant digits
		run      func(d graphsig.Distance) result
	}{
		{"Persistence", false, func(d graphsig.Distance) result { return ok(graphsig.Persistence(d, at, next), nil) }},
		{"PersistenceSummary", true, func(d graphsig.Distance) result { return ok(graphsig.PersistenceSummary(d, at, next), nil) }},
		{"UniquenessSummary/exact", false, func(d graphsig.Distance) result { return ok(graphsig.UniquenessSummary(d, at, 0, 1), nil) }},
		{"UniquenessSummary/sampled", false, func(d graphsig.Distance) result { return ok(graphsig.UniquenessSummary(d, at, 50, 1), nil) }},
		{"Robustness", false, func(d graphsig.Distance) result { return ok(graphsig.Robustness(d, at, next), nil) }},
		{"SelfRetrievalAUC", false, func(d graphsig.Distance) result { return ok(graphsig.SelfRetrievalAUC(d, at, next)) }},
		{"CompareSchemesAUC", false, func(d graphsig.Distance) result {
			return ok(graphsig.CompareSchemesAUC(d, tt, graphsig.UnexpectedTalkers(), data.Windows[0], data.Windows[1], 8, 1))
		}},
		{"DetectMultiusage/0.6", false, func(d graphsig.Distance) result { return ok(graphsig.DetectMultiusage(d, at, 0.6)) }},
		{"DetectMultiusage/1", false, func(d graphsig.Distance) result { return ok(graphsig.DetectMultiusage(d, at, 1)) }},
		{"NearestNeighbors", false, func(d graphsig.Distance) result { return ok(graphsig.NearestNeighbors(d, at, at.Sources[0], 5)) }},
		{"MasqueradeDelta", false, func(d graphsig.Distance) result { return ok(graphsig.MasqueradeDelta(d, at, next, 3)) }},
		{"DetectLabelMasquerading", false, func(d graphsig.Distance) result {
			return ok(graphsig.DetectLabelMasquerading(d, at, next, 0.2, 3))
		}},
		{"DetectAnomalies", true, func(d graphsig.Distance) result {
			anomalies, summary, err := graphsig.DetectAnomalies(d, at, next, 1)
			return ok([]any{anomalies, summary}, err)
		}},
		{"DeAnonymize/nearest", false, func(d graphsig.Distance) result { return ok(graphsig.DeAnonymize(d, at, next, false)) }},
		{"DeAnonymize/greedy", false, func(d graphsig.Distance) result { return ok(graphsig.DeAnonymize(d, at, next, true)) }},
	}
	for _, d := range graphsig.ExtendedDistances() {
		for _, ep := range entryPoints {
			want, got := ep.run(d), ep.run(disguised{d})
			if want.err != nil || got.err != nil {
				t.Fatalf("%s/%s: errors %v, %v", ep.name, d.Name(), want.err, got.err)
			}
			if ep.mapOrder {
				want.v, got.v = fmt.Sprintf("%.9v", want.v), fmt.Sprintf("%.9v", got.v)
			}
			if !reflect.DeepEqual(got.v, want.v) {
				t.Errorf("%s/%s: custom-distance result differs from the registered one:\n got %v\nwant %v",
					ep.name, d.Name(), got.v, want.v)
			}
		}
	}
}
