package stream

import (
	"math"
	"sort"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/sketch"
)

var streamT0 = time.Date(2026, 2, 2, 0, 0, 0, 0, time.UTC)

func flowAt(src, dst string, offset time.Duration, sessions int) netflow.Record {
	return netflow.Record{
		Src: src, Dst: dst, Start: streamT0.Add(offset),
		Duration: time.Second, Sessions: sessions, Bytes: 10, Packets: 1,
		Proto: netflow.TCP,
	}
}

func streamConfig() Config {
	return Config{
		WindowSize: time.Hour,
		Origin:     streamT0,
		Classify:   netflow.PrefixClassifier("10."),
		TCPOnly:    true,
		K:          5,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 1024, Depth: 5, Candidates: 64, Seed: 1},
	}
}

func TestPipelineValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.WindowSize = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Scheme = "rwr3@0.1" },
	}
	for i, mutate := range bad {
		cfg := streamConfig()
		mutate(&cfg)
		if _, err := NewPipeline(cfg, nil); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestPipelineWindowRotation(t *testing.T) {
	p, err := NewPipeline(streamConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0.
	for _, r := range []netflow.Record{
		flowAt("10.0.0.1", "e1", 0, 3),
		flowAt("10.0.0.1", "e2", 10*time.Minute, 1),
		flowAt("10.0.0.2", "e1", 20*time.Minute, 2),
	} {
		emitted, err := p.Ingest(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != 0 {
			t.Fatal("window emitted early")
		}
	}
	// A record three windows later closes windows 0, 1 and 2.
	emitted, err := p.Ingest(flowAt("10.0.0.1", "e3", 3*time.Hour+time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 3 {
		t.Fatalf("emitted %d windows, want 3", len(emitted))
	}
	if emitted[0].Window != 0 || emitted[2].Window != 2 {
		t.Fatalf("window indices %d..%d", emitted[0].Window, emitted[2].Window)
	}
	if emitted[0].Len() != 2 {
		t.Fatalf("window 0 has %d sources", emitted[0].Len())
	}
	if emitted[1].Len() != 0 || emitted[2].Len() != 0 {
		t.Fatal("empty windows not empty")
	}
	h1, _ := p.Universe().Lookup("10.0.0.1")
	sig, ok := emitted[0].Get(h1)
	if !ok || sig.Len() != 2 {
		t.Fatalf("window-0 signature of 10.0.0.1: %v", sig)
	}
	// e1 with 3 of 4 sessions dominates.
	e1, _ := p.Universe().Lookup("e1")
	if sig.Nodes[0] != e1 || sig.Weights[0] != 0.75 {
		t.Fatalf("top talker = (%v, %g)", sig.Nodes[0], sig.Weights[0])
	}

	// Flush closes the partial fourth window.
	last, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if last.Window != 3 || last.Len() != 1 {
		t.Fatalf("flushed window %d with %d sources", last.Window, last.Len())
	}
	if p.CurrentWindow() != 4 {
		t.Fatalf("current window = %d", p.CurrentWindow())
	}
}

func TestPipelineRejectsRegression(t *testing.T) {
	p, err := NewPipeline(streamConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 2*time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	// Window 2 is current; a window-0 record must be rejected.
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 0, 1)); err == nil {
		t.Fatal("regressing record accepted")
	}
	// Pre-origin records are rejected too.
	if _, err := p.Ingest(netflow.Record{
		Src: "10.0.0.1", Dst: "e1", Start: streamT0.Add(-time.Hour),
		Sessions: 1, Proto: netflow.TCP,
	}); err == nil {
		t.Fatal("pre-origin record accepted")
	}
}

func TestPipelineInvalidRecord(t *testing.T) {
	p, err := NewPipeline(streamConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(netflow.Record{Src: "a", Dst: "a", Start: streamT0, Sessions: 1, Proto: netflow.TCP}); err == nil {
		t.Fatal("self-flow accepted")
	}
	if _, err := p.Ingest(netflow.Record{Src: "a", Dst: "b", Start: streamT0, Sessions: 0, Proto: netflow.TCP}); err == nil {
		t.Fatal("zero-session record accepted")
	}
}

func TestPipelinePartConflict(t *testing.T) {
	u := graph.NewUniverse()
	u.MustIntern("10.0.0.1", graph.Part2) // conflicts with the classifier
	p, err := NewPipeline(streamConfig(), u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 0, 1)); err == nil {
		t.Fatal("part conflict accepted")
	}
}

func TestRunEmptyAndUTScheme(t *testing.T) {
	sets, err := Run(streamConfig(), nil, nil)
	if err != nil || len(sets) != 0 {
		t.Fatalf("empty run: %v %v", sets, err)
	}
	cfg := streamConfig()
	cfg.Scheme = "ut"
	sets, err = Run(cfg, nil, []netflow.Record{
		flowAt("10.0.0.1", "e1", 0, 2),
		flowAt("10.0.0.2", "e1", time.Minute, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Len() != 2 {
		t.Fatalf("ut run: %d sets", len(sets))
	}
	if sets[0].Scheme != "ut-stream" {
		t.Fatalf("scheme = %s", sets[0].Scheme)
	}
}

func TestPipelineGeneralGraphSources(t *testing.T) {
	// Without a classifier the graph is general: every observed source
	// gets a signature, including "external" ones.
	cfg := streamConfig()
	cfg.Classify = nil
	p, err := NewPipeline(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(flowAt("a", "b", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(flowAt("b", "a", time.Minute, 1)); err != nil {
		t.Fatal(err)
	}
	set, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("general-graph sources = %d", set.Len())
	}
}

func TestPipelineTCPOnly(t *testing.T) {
	p, err := NewPipeline(streamConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := flowAt("10.0.0.1", "e1", 0, 1)
	r.Proto = netflow.UDP
	if _, err := p.Ingest(r); err != nil {
		t.Fatal(err)
	}
	if p.Ingested() != 0 {
		t.Fatal("UDP record ingested under TCPOnly")
	}
}

// labelEntry is a signature entry resolved to its label, for
// order-normalized comparison between universes.
type labelEntry struct {
	label  string
	weight float64
}

func labelEntries(u *graph.Universe, sig core.Signature) []labelEntry {
	out := make([]labelEntry, sig.Len())
	for i := range sig.Nodes {
		out[i] = labelEntry{label: u.Label(sig.Nodes[i]), weight: sig.Weights[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].weight != out[j].weight {
			return out[i].weight > out[j].weight
		}
		return out[i].label < out[j].label
	})
	return out
}

// TestPipelineMatchesBatch compares the full streaming path against the
// materialized-graph batch path on a generated capture: with roomy
// sketches the per-window TT signatures must be identical.
func TestPipelineMatchesBatch(t *testing.T) {
	cfg := datagen.DefaultEnterpriseConfig(12)
	cfg.LocalHosts = 30
	cfg.ExternalHosts = 400
	cfg.Communities = 3
	cfg.Windows = 2
	cfg.MultiusageIndividuals = 2
	data, err := datagen.GenerateEnterprise(cfg)
	if err != nil {
		t.Fatal(err)
	}

	scfg := Config{
		WindowSize: cfg.WindowLength,
		Origin:     cfg.Origin,
		Classify:   datagen.LocalClassifier,
		TCPOnly:    true,
		K:          10,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 3},
	}
	// Pre-seed the stream universe with the batch universe's labels in
	// ID order so node identity coincides between the two paths.
	streamU := graph.NewUniverse()
	for id := 0; id < data.Universe.Size(); id++ {
		nid := graph.NodeID(id)
		streamU.MustIntern(data.Universe.Label(nid), data.Universe.PartOf(nid))
	}
	sets, err := Run(scfg, streamU, data.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != cfg.Windows {
		t.Fatalf("streamed %d windows, want %d", len(sets), cfg.Windows)
	}
	for wi, set := range sets {
		batch, err := core.ComputeSet(core.TopTalkers{}, data.Windows[wi],
			core.DefaultSources(data.Windows[wi]), 10)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != batch.Len() {
			t.Fatalf("window %d: %d streamed sources vs %d batch", wi, set.Len(), batch.Len())
		}
		for i, v := range batch.Sources {
			// NodeIDs differ between universes; compare by label.
			label := data.Universe.Label(v)
			streamNode, ok := streamU.Lookup(label)
			if !ok {
				t.Fatalf("window %d: %q missing from stream universe", wi, label)
			}
			streamed, ok := set.Get(streamNode)
			if !ok {
				t.Fatalf("window %d: %q missing from stream", wi, label)
			}
			want := batch.Sigs[i]
			if streamed.Len() != want.Len() {
				t.Fatalf("window %d %q: len %d vs %d", wi, label, streamed.Len(), want.Len())
			}
			// The batch extractor breaks weight ties by NodeID, the
			// streaming one by stable label hash (so cluster shards agree
			// with single nodes). A tie straddling the k-cut may therefore
			// keep different members, but only at the boundary weight:
			// compare weights positionally and labels for every entry
			// strictly above the boundary.
			wantEntries := labelEntries(data.Universe, want)
			gotEntries := labelEntries(streamU, streamed)
			boundary := wantEntries[len(wantEntries)-1].weight
			for j := range wantEntries {
				if wantEntries[j].weight != gotEntries[j].weight {
					t.Fatalf("window %d %q entry %d weight: %g vs %g",
						wi, label, j, gotEntries[j].weight, wantEntries[j].weight)
				}
				if wantEntries[j].weight > boundary && wantEntries[j] != gotEntries[j] {
					t.Fatalf("window %d %q entry %d: (%s,%g) vs (%s,%g)",
						wi, label, j, gotEntries[j].label, gotEntries[j].weight,
						wantEntries[j].label, wantEntries[j].weight)
				}
			}
		}
	}
}

// TestRunSparseMatchesExactTT is the contract a source under the
// candidate bound has: Run gives it the exact TT signature of the graph
// built from the same records, bit for bit — weights, members and
// order, ties on the stable label key — whatever the sketch it would
// have grown into. The bound of 30 leaves the busier sources dense;
// those are the sketch's and are skipped (and counted, so the test
// cannot pass by skipping everything).
func TestRunSparseMatchesExactTT(t *testing.T) {
	cfg := datagen.DefaultEnterpriseConfig(12)
	cfg.LocalHosts = 60
	cfg.ExternalHosts = 500
	cfg.Communities = 3
	cfg.Windows = 3
	data, err := datagen.GenerateEnterprise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bound, k = 30, 10
	scfg := Config{
		WindowSize: cfg.WindowLength,
		Origin:     cfg.Origin,
		Classify:   datagen.LocalClassifier,
		TCPOnly:    true,
		K:          k,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 8, Depth: 2, Candidates: bound, Seed: 3}, // collides at once
	}
	sets, err := Run(scfg, data.Universe, data.Records)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != cfg.Windows {
		t.Fatalf("streamed %d windows, want %d", len(sets), cfg.Windows)
	}
	type windowSource struct {
		window int
		src    string
	}
	observations := map[windowSource]int{}
	for _, r := range data.Records {
		observations[windowSource{int(r.Start.Sub(cfg.Origin) / cfg.WindowLength), r.Src}]++
	}
	sparse, dense := 0, 0
	for wi, set := range sets {
		w := data.Windows[wi]
		for i, v := range set.Sources {
			if observations[windowSource{wi, data.Universe.Label(v)}] > bound {
				dense++
				continue
			}
			sparse++
			total := w.OutWeightSum(v)
			weights := map[graph.NodeID]float64{}
			w.Out(v, func(u graph.NodeID, wt float64) bool {
				weights[u] = wt / total
				return true
			})
			want := core.FromWeightsKeyed(weights, k, data.Universe.StableKey)
			got := set.Sigs[i]
			if got.Len() != want.Len() {
				t.Fatalf("window %d %q: %v, exact %v", wi, data.Universe.Label(v), got, want)
			}
			for j := range want.Nodes {
				if got.Nodes[j] != want.Nodes[j] || math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
					t.Fatalf("window %d %q entry %d: %v, exact %v", wi, data.Universe.Label(v), j, got, want)
				}
			}
		}
	}
	t.Logf("%d sources under the bound, %d over", sparse, dense)
	if sparse < 20 || dense < 20 {
		t.Fatalf("%d sources under the bound, %d over: the input no longer straddles it", sparse, dense)
	}
}

// TestPipelineFlushZeroIngested pins Flush semantics on a pipeline that
// never saw a record: it closes the (empty) current window and advances,
// so callers that flush unconditionally append one empty window per
// flush. The serving layer relies on this to skip flushing when nothing
// is pending.
func TestPipelineFlushZeroIngested(t *testing.T) {
	p, err := NewPipeline(streamConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if set.Window != 0 || set.Len() != 0 {
		t.Fatalf("flush of fresh pipeline gave window %d with %d sources", set.Window, set.Len())
	}
	if p.CurrentWindow() != 1 || p.Ingested() != 0 {
		t.Fatalf("after flush: window %d, ingested %d", p.CurrentWindow(), p.Ingested())
	}
	// A second flush closes the next empty window; ingest then resumes
	// in window 2 and a later record still emits every skipped window.
	if set, err = p.Flush(); err != nil || set.Window != 1 {
		t.Fatalf("second flush: window %d, err %v", set.Window, err)
	}
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", time.Hour, 1)); err == nil {
		t.Fatal("record for already-flushed window 1 accepted")
	}
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 2*time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	emitted, err := p.Ingest(flowAt("10.0.0.1", "e1", 5*time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 3 || emitted[0].Window != 2 || emitted[0].Len() != 1 {
		t.Fatalf("gap after flush emitted %d windows starting at %d", len(emitted), emitted[0].Window)
	}
}

// TestPipelineImplicitOrigin covers the Origin-less configuration: the
// first accepted record anchors the window grid, and anything earlier
// is rejected as pre-origin.
func TestPipelineImplicitOrigin(t *testing.T) {
	cfg := streamConfig()
	cfg.Origin = time.Time{}
	p, err := NewPipeline(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-TCP records are filtered before the origin latches.
	if _, err := p.Ingest(netflow.Record{
		Src: "10.0.0.9", Dst: "e9", Start: streamT0.Add(-time.Hour),
		Sessions: 1, Proto: netflow.UDP,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 30*time.Minute, 2)); err != nil {
		t.Fatal(err)
	}
	// Earlier than the first accepted record: pre-origin.
	if _, err := p.Ingest(flowAt("10.0.0.1", "e1", 0, 1)); err == nil {
		t.Fatal("pre-origin record accepted under implicit origin")
	}
	// The grid is anchored at +30min, so +1h29m is still window 0 and
	// +1h31m starts window 1.
	if emitted, err := p.Ingest(flowAt("10.0.0.2", "e1", time.Hour+29*time.Minute, 1)); err != nil || len(emitted) != 0 {
		t.Fatalf("same-window record: emitted %d, err %v", len(emitted), err)
	}
	emitted, err := p.Ingest(flowAt("10.0.0.1", "e2", time.Hour+31*time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 || emitted[0].Window != 0 || emitted[0].Len() != 2 {
		t.Fatalf("window 0 emission: %d sets", len(emitted))
	}
}
