package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// smokeSizing is every stage at a size that runs in a few seconds.
var smokeSizing = sizing{
	hosts: 100, rounds: minRounds, roundWindows: 2, smallBatches: 10, restarts: 2, mixedSeconds: 0.4, mixedRate: 10000,
	hotSearches: 20, batchSearches: 2, coldSearches: 6, histories: 6, routedSearches: 10,
	analyticsSources: 80,
}

// The stream is a pure function of the seed: seed 1's fingerprint is
// pinned, and seed 2 differs.
func TestStreamDeterministic(t *testing.T) {
	hash := func(seed int64) uint64 {
		d, err := generateDataset(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		return streamHash(d.stream(0, 2*baseWindows+1))
	}
	const seed1 = uint64(0x696556bbd9ec146e)
	if got := hash(1); got != seed1 {
		t.Errorf("seed 1 stream hash = %#x, want %#x", got, seed1)
	}
	if hash(1) != hash(1) {
		t.Error("seed 1 gave two different streams")
	}
	if hash(2) == hash(1) {
		t.Error("seed 2 gave seed 1's stream")
	}
}

// Tiling repeats the base windows one tile period later and keeps the
// stream window-ordered.
func TestTiling(t *testing.T) {
	d, err := generateDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	first, again := d.stream(1, 1), d.stream(1+baseWindows, 1)
	if len(first) == 0 || len(first) != len(again) || len(first) != d.windowLen(1+baseWindows) {
		t.Fatalf("window 1 has %d records, its tile %d", len(first), len(again))
	}
	shift := time.Duration(baseWindows) * d.gcfg.WindowLength
	for i := range first {
		want := first[i]
		want.Start = want.Start.Add(shift)
		if again[i] != want {
			t.Fatalf("record %d of the tile is %+v, want %+v", i, again[i], want)
		}
	}
	cur := 0
	for _, r := range d.stream(0, 3*baseWindows) {
		w := d.windowOf(r)
		if w < cur || w > cur+1 {
			t.Fatalf("stream jumps from window %d to %d", cur, w)
		}
		cur = w
	}
	if cur != 3*baseWindows-1 {
		t.Errorf("stream ends in window %d, want %d", cur, 3*baseWindows-1)
	}
	a, b := d.queryLabels(1, "hot", 50), d.queryLabels(1, "hot", 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("query labels differ between two draws of one seed")
		}
	}
}

// Every workload's stages run, at a small size, with every output check
// passing, untraced and traced; the traced run reports every per-layer
// metric BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	decl := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		sz := smokeSizing
		sz.coldWindows = workloads[name].coldWindows / 2
		for _, trace := range []int{0, 1} {
			o := options{workload: name, seed: 1, seconds: 1, trace: trace}
			if trace == 1 {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			rep, err := runWorkload(name, sz, o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d operations failed: %v", name, trace, rep.failed, rep.attempted, rep.failures)
			}
			if trace == 0 {
				continue
			}
			for _, m := range decl.PerLayer {
				if _, ok := rep.layers[m.Name]; !ok {
					t.Errorf("%s: traced run did not report %s", name, m.Name)
				}
			}
			if len(rep.layers) != len(decl.PerLayer) {
				t.Errorf("%s: traced run reported %d per-layer metrics, BENCHMARK.json declares %d", name, len(rep.layers), len(decl.PerLayer))
			}
			if sum := rep.layers["ingest.layers_sum_frac"].Value; sum <= 0 || sum > 2 {
				t.Errorf("%s: ingest.layers_sum_frac = %v", name, sum)
			}
			var spans []span
			b, err := os.ReadFile(o.traceOut)
			if err == nil {
				err = json.Unmarshal(b, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: trace file: %d spans, %v", name, len(spans), err)
			}
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// BENCHMARK.json and the harness must declare the same workloads, run
// length and end-to-end metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness is sized for %d", decl.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); len(names) != len(want) || names[0] != want[0] || names[len(names)-1] != want[len(want)-1] {
		t.Errorf("workloads %v, the harness has %v", names, want)
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the harness has %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, got, d)
		}
	}
}
