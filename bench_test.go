package graphsig_test

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the artifact end-to-end on a reduced-scale dataset; run cmd/sigbench
// for the full-scale numbers) plus micro-benchmarks of the hot kernels
// (scheme computation, distances, AUC, perturbation, sketches, LSH).

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"
	"time"

	"graphsig"
	"graphsig/internal/apps"
	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/distmat"
	"graphsig/internal/eval"
	"graphsig/internal/experiments"
	"graphsig/internal/lsh"
	"graphsig/internal/perturb"
	"graphsig/internal/sketch"
	"graphsig/internal/stats"
)

// benchScale keeps one experiment iteration in the ~100ms range; the
// shapes measured here are the same the full-scale run reports.
const benchScale = 0.35

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := experiments.LoadScaled(42, benchScale)
		if err != nil {
			benchErr = err
			return
		}
		benchEnv = experiments.NewEnv(ds, 42)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// freshEnv returns an uncached environment so a benchmark measures the
// experiment's real work rather than memoized signature sets.
func freshEnv(b *testing.B) *experiments.Env {
	b.Helper()
	e := env(b)
	return experiments.NewEnv(e.DS, 42)
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIVMeasured(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3a(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3b(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.StreamingAblation(freshEnv(b), sketch.StreamConfig{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSHAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LSHAblation(freshEnv(b), 16, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnomalyDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AnomalyDetection(freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, freshEnv(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- micro-benchmarks ----

func flowWindow(b *testing.B) *graphsig.Graph {
	return env(b).DS.Flow.Windows[0]
}

func BenchmarkSchemeTT(b *testing.B) {
	w := flowWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeUT(b *testing.B) {
	w := flowWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphsig.ComputeSignatures(graphsig.UnexpectedTalkers(), w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeRWR3(b *testing.B) {
	w := flowWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphsig.ComputeSignatures(graphsig.RandomWalk(0.1, 3), w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemeRWRConverged(b *testing.B) {
	w := flowWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphsig.ComputeSignatures(graphsig.RandomWalk(0.1, 0), w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSigs(b *testing.B) *graphsig.SignatureSet {
	set, err := graphsig.ComputeSignatures(graphsig.TopTalkers(), flowWindow(b), 10)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func BenchmarkDistances(b *testing.B) {
	set := benchSigs(b)
	if set.Len() < 2 {
		b.Fatal("too few signatures")
	}
	for _, d := range graphsig.AllDistances() {
		b.Run(d.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.Dist(set.Sigs[i%set.Len()], set.Sigs[(i+1)%set.Len()])
			}
		})
	}
}

func BenchmarkSelfRetrievalAUC(b *testing.B) {
	e := env(b)
	s := core.TopTalkers{}
	at, err := e.Sigs(experiments.FlowData, s, 0)
	if err != nil {
		b.Fatal(err)
	}
	next, err := e.Sigs(experiments.FlowData, s, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.SelfRetrievalAUC(core.ScaledHellinger{}, at, next); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerturb(b *testing.B) {
	w := flowWindow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.Perturb(w, perturb.Options{InsertFrac: 0.1, DeleteFrac: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm, err := sketch.NewCountMin(4, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(uint64(i), 1)
	}
}

func BenchmarkFMAdd(b *testing.B) {
	fm, err := sketch.NewFM(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Add(uint64(i))
	}
}

func BenchmarkStreamTTObserve(b *testing.B) {
	st := graphsig.NewStreamTT(graphsig.StreamConfig{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Observe(graphsig.NodeID(i%64), graphsig.NodeID(1000+i%500), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSHQuery(b *testing.B) {
	set := benchSigs(b)
	hasher, err := lsh.NewHasher(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	index, err := lsh.NewIndex(hasher, 16, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range set.Sources {
		if err := index.Add(v, set.Sigs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % set.Len()
		if _, err := index.Query(set.Sigs[q], set.Sources[q], 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseUniqueness compares the all-pairs uniqueness
// summary computed with the naive per-pair Dist double loop against the
// distmat engine (flat SoA kernels + inverted-index candidates +
// sharded rows). The two paths produce bit-identical summaries; the
// benchmark measures the speedup.
func BenchmarkPairwiseUniqueness(b *testing.B) {
	set := benchSigs(b)
	d := core.ScaledHellinger{}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var acc stats.Accumulator
			for i := range set.Sigs {
				for j := range set.Sigs {
					if j == i {
						continue
					}
					acc.Add(d.Dist(set.Sigs[i], set.Sigs[j]))
				}
			}
			_ = acc.Summarize()
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		idx := make([]int, set.Len())
		for i := range idx {
			idx[i] = i
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, _ := distmat.NewEngine(set, set, d, 0)
			var acc stats.Accumulator
			eng.Rows(idx, func(t int, row []float64) {
				for j, dist := range row {
					if j == t {
						continue
					}
					acc.Add(dist)
				}
			})
			_ = acc.Summarize()
		}
	})
}

// BenchmarkMultiusageAllPairs compares the multiusage all-pairs scan at
// a tight threshold: the naive quadratic loop against the engine's
// sparse posting-list enumeration (only pairs sharing ≥1 node are ever
// compared).
func BenchmarkMultiusageAllPairs(b *testing.B) {
	set := benchSigs(b)
	d := core.Jaccard{}
	const threshold = 0.3
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []apps.SimilarPair
			for i := 0; i < set.Len(); i++ {
				if set.Sigs[i].IsEmpty() {
					continue
				}
				for j := i + 1; j < set.Len(); j++ {
					if set.Sigs[j].IsEmpty() {
						continue
					}
					if dist := d.Dist(set.Sigs[i], set.Sigs[j]); dist <= threshold {
						out = append(out, apps.SimilarPair{A: set.Sources[i], B: set.Sources[j], Dist: dist})
					}
				}
			}
			_ = out
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := apps.DetectMultiusage(d, set, threshold); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	analyticsOnce sync.Once
	analyticsSets [2]*core.SignatureSet
	analyticsErr  error
)

// analyticsInput is the end-to-end harness's analytics capture
// (bench/setup.go, analyticsSources): two windows of a 2 000-source
// datagen capture at seed 1, sized as bench/'s enterpriseConfig sizes it,
// signed by Top Talkers at k = 10.
func analyticsInput(b *testing.B) (at, next *core.SignatureSet) {
	b.Helper()
	analyticsOnce.Do(func() {
		cfg := datagen.DefaultEnterpriseConfig(1)
		cfg.LocalHosts, cfg.ExternalHosts, cfg.Windows = 2000, 16000, 2
		cfg.MultiusageIndividuals = min(cfg.MultiusageIndividuals, cfg.LocalHosts/15)
		data, err := datagen.GenerateEnterprise(cfg)
		if err != nil {
			analyticsErr = err
			return
		}
		for i := range analyticsSets {
			w := data.Windows[i]
			if analyticsSets[i], err = core.ComputeSet(core.TopTalkers{}, w, core.DefaultSources(w), 10); err != nil {
				analyticsErr = err
				return
			}
		}
	})
	if analyticsErr != nil {
		b.Fatal(analyticsErr)
	}
	return analyticsSets[0], analyticsSets[1]
}

// BenchmarkAnalyticsPass is one pass of the end-to-end harness's
// analytics stage (bench/stage_analytics.go, whose sum is analytics_s)
// without bench/: uniqueness and multiusage under Jaccard and
// ScaledHellinger, persistence, anomalies and the self-retrieval AUC
// over 2 000 sources. Each call's time is reported beside the pass's, and
// a hash of what the pass computed is logged: a scheduling change must
// leave it as it was. Persistence is a map walk, so of its summary only
// the count and the extremes are exact, and only they are hashed.
func BenchmarkAnalyticsPass(b *testing.B) {
	at, next := analyticsInput(b)
	calls := []string{"uniq-jaccard", "multi-jaccard", "uniq-shel", "multi-shel", "persistence", "anomalies", "self-auc"}
	spent := make([]time.Duration, len(calls))
	timed := func(call int, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			b.Fatal(err)
		}
		spent[call] += time.Since(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		for k, d := range []core.Distance{core.Jaccard{}, core.ScaledHellinger{}} {
			timed(2*k, func() error {
				fmt.Fprint(h, eval.UniquenessSummary(d, at, 0, 0))
				return nil
			})
			timed(2*k+1, func() error {
				pairs, err := apps.DetectMultiusage(d, at, 0.5)
				fmt.Fprint(h, pairs)
				return err
			})
		}
		timed(4, func() error {
			p := eval.PersistenceSummary(core.Jaccard{}, at, next)
			fmt.Fprint(h, p.N, p.Min, p.Max)
			return nil
		})
		timed(5, func() error {
			found, _, err := apps.DetectAnomalies(core.Jaccard{}, at, next, 2)
			for _, a := range found {
				fmt.Fprint(h, a.Node, a.Persistence)
			}
			return err
		})
		timed(6, func() error {
			auc, err := eval.SelfRetrievalAUC(core.Jaccard{}, at, next)
			fmt.Fprint(h, auc)
			return err
		})
		if i == 0 {
			b.Logf("%d sources, pass outputs fnv64a %016x", at.Len(), h.Sum64())
		}
	}
	for call, name := range calls {
		b.ReportMetric(float64(spent[call].Microseconds())/1e3/float64(b.N), name+"-ms/op")
	}
}

func BenchmarkGenerateEnterprise(b *testing.B) {
	cfg := graphsig.DefaultEnterpriseConfig(1)
	cfg.LocalHosts = 60
	cfg.ExternalHosts = 1200
	cfg.Communities = 5
	cfg.Windows = 2
	cfg.MultiusageIndividuals = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := graphsig.GenerateEnterprise(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
