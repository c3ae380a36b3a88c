package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// testOpts mirrors the flag defaults.
var testOpts = pairwiseOpts{}

// The per-experiment paths run at a small scale; RunAll is covered by
// the experiments package test and the full-scale binary run.
func TestSigbenchExperiments(t *testing.T) {
	for _, name := range []string{
		"tables", "fig1", "fig2", "fig3a", "fig3b",
		"fig4", "fig5", "fig6", "anomaly", "blend", "significance",
		"deanon", "phone", "prune", "hops", "horizon", "ablations",
		"pairwise",
	} {
		if err := run(7, 0.2, name, "", testOpts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSigbenchUnknownExperiment(t *testing.T) {
	if err := run(7, 0.2, "bogus", "", testOpts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSigbenchBadScale(t *testing.T) {
	if err := run(7, 0, "tables", "", testOpts); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

// TestSigbenchPairwiseJSON checks the machine-readable report: one
// entry per extended distance, engine bit-identical to naive, plausible
// throughput numbers.
func TestSigbenchPairwiseJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_pairwise.json")
	if err := run(7, 0.2, "pairwise", path, testOpts); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report pairwiseReport
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Results) == 0 {
		t.Fatal("no pairwise results")
	}
	for _, r := range report.Results {
		if !r.Identical {
			t.Fatalf("%s: engine not bit-identical to naive", r.Distance)
		}
		if r.Pairs != r.Signatures*(r.Signatures-1) {
			t.Fatalf("%s: pairs %d does not match %d signatures", r.Distance, r.Pairs, r.Signatures)
		}
		if r.Naive.NsPerPair <= 0 || r.Engine.NsPerPair <= 0 || r.Speedup <= 0 {
			t.Fatalf("%s: implausible timings: %+v", r.Distance, r)
		}
		if r.EngineKernel.NsPerPair <= 0 {
			t.Fatalf("%s: missing engine_kernel side: %+v", r.Distance, r)
		}
		// The alloc-free rebuild pins the engine side to view
		// construction only — far under the old ~1.5k per run.
		if r.Engine.Allocs > 152 {
			t.Fatalf("%s: engine side allocates %d times, want ≤152", r.Distance, r.Engine.Allocs)
		}
	}
}

func TestSigbenchProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := profiledRun(7, 0.2, "fig1", "", testOpts, cpu, mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
