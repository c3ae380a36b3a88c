package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/experiments"
	"graphsig/internal/stats"
)

// pairwiseOpts carries the pairwise experiment's flags.
type pairwiseOpts struct {
	// Baseline, when set, diffs engine pairs/sec against a committed
	// BENCH_pairwise.json and warns on >20% regressions.
	Baseline string
}

// pairwiseSide is one measured implementation (naive, engine, or the
// engine's row kernel alone) of the all-pairs computation.
type pairwiseSide struct {
	TotalNs     int64   `json:"total_ns"`
	NsPerPair   float64 `json:"ns_per_pair"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	Allocs      uint64  `json:"allocs"`
}

// pairwiseResult compares the implementations for one distance: the
// naive/engine pair measures the dense all-pairs job (comparable across
// benchmark generations).
type pairwiseResult struct {
	Distance   string       `json:"distance"`
	Signatures int          `json:"signatures"`
	Pairs      int          `json:"pairs"`
	Naive      pairwiseSide `json:"naive"`
	Engine     pairwiseSide `json:"engine"`
	// EngineKernel is the row-kernel hot loop alone: Rows over a
	// prebuilt SetView, excluding view construction and the result
	// accumulation both other sides share. This is the sustained
	// single-core pairs/sec the SoA kernels deliver in steady state
	// (the store and router reuse views across queries).
	EngineKernel pairwiseSide `json:"engine_kernel"`
	Speedup      float64      `json:"speedup"`
	Identical    bool         `json:"identical"`
}

// pairwiseReport is the machine-readable output of -experiment pairwise
// (written to the -json path when set).
type pairwiseReport struct {
	Seed       int64            `json:"seed"`
	Scale      float64          `json:"scale"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []pairwiseResult `json:"results"`
}

// repeatBudget/repeatMax bound the best-of-N timing loop: fn repeats
// until the budget of wall time is spent or repeatMax iterations ran.
const (
	repeatBudget = 150 * time.Millisecond
	repeatMax    = 64
)

// measurePairwise times fn best-of-N: one instrumented run counts heap
// allocations (runtime Mallocs, the quantity testing.B.ReportAllocs
// tracks), then fn repeats within repeatBudget/repeatMax and the
// fastest iteration's wall time is reported. Minimum-of-N is the right
// estimator for a throughput ceiling on a shared machine — scheduler
// preemption and GC pauses only ever add time.
func measurePairwise(fn func()) (int64, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	best := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	total := best
	for iters := 1; total < int64(repeatBudget) && iters < repeatMax; iters++ {
		start = time.Now()
		fn()
		ns := time.Since(start).Nanoseconds()
		if ns < best {
			best = ns
		}
		total += ns
	}
	return best, allocs
}

func side(ns int64, allocs uint64, pairs int) pairwiseSide {
	return pairwiseSide{
		TotalNs:     ns,
		NsPerPair:   float64(ns) / float64(pairs),
		PairsPerSec: float64(pairs) / (float64(ns) * 1e-9),
		Allocs:      allocs,
	}
}

// runPairwise benchmarks the all-pairs uniqueness computation — the
// naive per-pair Dist double loop against the distmat engine — over the
// flow dataset's TopTalkers signatures, asserting the engine produces
// bit-identical results.
func runPairwise(e *experiments.Env, seed int64, scale float64, opts pairwiseOpts, out io.Writer, jsonPath string) error {
	set, err := e.Sigs(experiments.FlowData, core.TopTalkers{}, 0)
	if err != nil {
		return err
	}
	n := set.Len()
	if n < 2 {
		return fmt.Errorf("pairwise: need at least 2 signatures, have %d", n)
	}
	pairs := n * (n - 1)
	report := pairwiseReport{
		Seed:       seed,
		Scale:      scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, d := range core.ExtendedDistances() {
		naive := func() stats.Summary {
			var acc stats.Accumulator
			for i := range set.Sigs {
				for j := range set.Sigs {
					if j == i {
						continue
					}
					acc.Add(d.Dist(set.Sigs[i], set.Sigs[j]))
				}
			}
			return acc.Summarize()
		}
		engine := func() stats.Summary {
			eng, _ := distmat.NewEngine(set, set, d, 0)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			var acc stats.Accumulator
			eng.Rows(idx, func(t int, row []float64) {
				for j, dist := range row {
					if j == t {
						continue
					}
					acc.Add(dist)
				}
			})
			return acc.Summarize()
		}

		var naiveSum, engineSum stats.Summary
		naiveNs, naiveAllocs := measurePairwise(func() { naiveSum = naive() })
		engineNs, engineAllocs := measurePairwise(func() { engineSum = engine() })

		// The kernel side: same rows job on a prebuilt engine, with a
		// minimal consumer — steady-state row throughput, one core.
		keng, _ := distmat.NewEngine(set, set, d, 1)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		var sink float64
		kernelNs, kernelAllocs := measurePairwise(func() {
			keng.Rows(idx, func(t int, row []float64) { sink += row[t] })
		})
		if math.IsNaN(sink) {
			return fmt.Errorf("pairwise: kernel produced NaN")
		}

		res := pairwiseResult{
			Distance:     d.Name(),
			Signatures:   n,
			Pairs:        pairs,
			Naive:        side(naiveNs, naiveAllocs, pairs),
			Engine:       side(engineNs, engineAllocs, pairs),
			EngineKernel: side(kernelNs, kernelAllocs, pairs),
			Speedup:      float64(naiveNs) / float64(engineNs),
			Identical:    naiveSum == engineSum,
		}
		if !res.Identical {
			return fmt.Errorf("pairwise: %s engine diverges from naive (identical: false)", d.Name())
		}
		report.Results = append(report.Results, res)
	}

	fmt.Fprintf(out, "Pairwise uniqueness: %d signatures, %d ordered pairs, GOMAXPROCS=%d\n",
		n, pairs, report.GoMaxProcs)
	fmt.Fprintf(out, "%-10s %14s %14s %14s %11s %9s %12s %12s\n",
		"distance", "naive ns/pair", "engine ns/pair", "kernel ns/pair", "kernel Mp/s", "speedup", "naive allocs", "eng allocs")
	for _, r := range report.Results {
		fmt.Fprintf(out, "%-10s %14.1f %14.1f %14.1f %11.1f %8.2fx %12d %12d\n",
			r.Distance, r.Naive.NsPerPair, r.Engine.NsPerPair,
			r.EngineKernel.NsPerPair, r.EngineKernel.PairsPerSec/1e6, r.Speedup,
			r.Naive.Allocs, r.Engine.Allocs)
	}
	if opts.Baseline != "" {
		if err := diffBaseline(opts.Baseline, report, out); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
			return fmt.Errorf("pairwise: writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return nil
}

// diffBaseline compares engine throughput against a committed report
// and prints benchstat-style deltas, warning on >20% regressions: the
// engine's and the row kernel's pairs/sec.
func diffBaseline(path string, report pairwiseReport, out io.Writer) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("pairwise: reading baseline %s: %w", path, err)
	}
	var base pairwiseReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("pairwise: parsing baseline %s: %w", path, err)
	}
	type sides struct{ engine, kernel float64 }
	old := make(map[string]sides, len(base.Results))
	for _, r := range base.Results {
		old[r.Distance] = sides{r.Engine.PairsPerSec, r.EngineKernel.PairsPerSec}
	}
	fmt.Fprintf(out, "\nBaseline delta vs %s\n", path)
	warned := 0
	diff := func(name string, was, now float64) {
		if was <= 0 {
			return
		}
		delta := (now - was) / was * 100
		mark := ""
		if delta < -20 {
			mark = "  WARN: >20% regression"
			warned++
		}
		fmt.Fprintf(out, "%-18s %8.1fM -> %8.1fM pairs/sec  %+6.1f%%%s\n",
			name, was/1e6, now/1e6, delta, mark)
	}
	for _, r := range report.Results {
		was, ok := old[r.Distance]
		if !ok {
			continue
		}
		diff(r.Distance, was.engine, r.Engine.PairsPerSec)
		diff(r.Distance+" (kernel)", was.kernel, r.EngineKernel.PairsPerSec)
	}
	if warned > 0 {
		fmt.Fprintf(out, "pairwise: %d distance(s) regressed >20%% vs %s\n", warned, path)
	}
	return nil
}
