package experiments

import (
	"fmt"
	"sort"
	"strings"

	"graphsig/internal/core"
	"graphsig/internal/eval"
	"graphsig/internal/graph"
	"graphsig/internal/lsh"
	"graphsig/internal/sketch"
)

// StreamingRow compares a streaming signature extractor (§VI) against
// its exact counterpart on the same window, over the sources whose
// per-source state had become one thing or the other by the end of it.
type StreamingRow struct {
	Scheme string
	// FMBitmaps sizes the in-degree sketches behind the row (UT only; 0
	// for TT, which has none).
	FMBitmaps int
	// Dense says which sources the row is over: those that outgrew the
	// candidate bound and read through a Count-Min sketch, or those
	// still held as the log of their observations and read exactly. The
	// bound counts observations, not distinct destinations, and the
	// replay below makes weight-many unit observations of every edge —
	// so a source is dense here once it opened more sessions than the
	// bound (64 by default), however few hosts it opened them to.
	Dense bool
	// Sources is how many there are.
	Sources int
	// MeanDist is the mean Dist_SHel between exact and streamed
	// signatures per source (0 = identical).
	MeanDist float64
	// ExactTopkRecall is the mean fraction of the exact signature's
	// members recovered by the streamed signature.
	ExactTopkRecall float64
	// AUC is the cross-window self-retrieval AUC of these sources among
	// all of the next window's, using only streamed signatures;
	// comparable with Figure 3(a)'s exact values.
	AUC float64
}

// streamingFMBitmaps is the sweep of in-degree sketch sizes
// StreamingAblation runs UT at; the first is the default.
var streamingFMBitmaps = []int{16, 64, 256}

// StreamingAblation measures how much signature quality the §VI
// semi-streaming extractors give up: it streams the window-0 and
// window-1 edge observations through StreamTT, and through StreamUT at
// each size of streamingFMBitmaps (cfg's own is not used), and compares
// against exact TT/UT — separately for the sources that stayed sparse
// and those that went dense. A row with no sources is left out.
func StreamingAblation(e *Env, cfg sketch.StreamConfig) ([]StreamingRow, error) {
	d := core.ScaledHellinger{}
	w0 := e.windows(FlowData)[0]
	w1 := e.windows(FlowData)[1]
	k := e.k(FlowData)

	type extractor interface {
		Observe(src, dst graph.NodeID, weight float64) error
		Signature(v graph.NodeID, k int) (core.Signature, error)
		Dense(v graph.NodeID) bool
	}
	// streamSet replays w into ex and returns the signatures of its
	// sources in two sets: the sparse ones and the dense ones.
	streamSet := func(name string, ex extractor, w *graph.Window) (sets [2]*core.SignatureSet, err error) {
		for _, edge := range w.Edges() {
			// Replay each aggregated edge as weight-many unit
			// observations: the stream the sketches were built for.
			for i := 0; i < int(edge.Weight); i++ {
				if err := ex.Observe(edge.From, edge.To, 1); err != nil {
					return sets, err
				}
			}
		}
		var sources [2][]graph.NodeID
		var sigs [2][]core.Signature
		for _, v := range core.DefaultSources(w) {
			sig, err := ex.Signature(v, k)
			if err != nil {
				return sets, err
			}
			half := 0
			if ex.Dense(v) {
				half = 1
			}
			sources[half], sigs[half] = append(sources[half], v), append(sigs[half], sig)
		}
		for half := range sets {
			if sets[half], err = core.NewSignatureSet(name+"-stream", w.Index(), sources[half], sigs[half]); err != nil {
				return sets, err
			}
		}
		return sets, nil
	}

	var rows []StreamingRow
	run := func(name string, bitmaps int, build func() extractor) error {
		exact0, err := e.Sigs(FlowData, mustScheme(name), 0)
		if err != nil {
			return err
		}
		s0, err := streamSet(name, build(), w0)
		if err != nil {
			return fmt.Errorf("experiments: streaming %s: %w", name, err)
		}
		s1, err := streamSet(name, build(), w1)
		if err != nil {
			return fmt.Errorf("experiments: streaming %s: %w", name, err)
		}
		// The candidates of a retrieval are all of window 1's sources.
		next, err := core.NewSignatureSet(name+"-stream", w1.Index(),
			append(append([]graph.NodeID(nil), s1[0].Sources...), s1[1].Sources...),
			append(append([]core.Signature(nil), s1[0].Sigs...), s1[1].Sigs...))
		if err != nil {
			return err
		}
		compared := 0
		for half, set := range s0 {
			var distSum, recallSum float64
			n := 0
			for i, v := range exact0.Sources {
				streamed, ok := set.Get(v)
				if !ok {
					continue
				}
				exact := exact0.Sigs[i]
				distSum += d.Dist(exact, streamed)
				if exact.Len() > 0 {
					hits := 0
					for _, u := range exact.Nodes {
						if streamed.Contains(u) {
							hits++
						}
					}
					recallSum += float64(hits) / float64(exact.Len())
				} else {
					recallSum++
				}
				n++
			}
			if n == 0 {
				continue
			}
			compared += n
			auc, err := eval.SelfRetrievalAUC(d, set, next)
			if err != nil {
				return fmt.Errorf("experiments: streaming %s AUC: %w", name, err)
			}
			rows = append(rows, StreamingRow{
				Scheme:          name,
				FMBitmaps:       bitmaps,
				Dense:           half == 1,
				Sources:         n,
				MeanDist:        distSum / float64(n),
				ExactTopkRecall: recallSum / float64(n),
				AUC:             auc,
			})
		}
		if compared == 0 {
			return fmt.Errorf("experiments: streaming %s produced no comparable sources", name)
		}
		return nil
	}
	if err := run("tt", 0, func() extractor { return sketch.NewStreamTT(cfg) }); err != nil {
		return nil, err
	}
	for _, bitmaps := range streamingFMBitmaps {
		ucfg := cfg
		ucfg.FMBitmaps = bitmaps
		if err := run("ut", bitmaps, func() extractor { return sketch.NewStreamUT(ucfg) }); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func mustScheme(name string) core.Scheme {
	s, err := core.ParseScheme(name)
	if err != nil {
		panic(err)
	}
	return s
}

// lshSimilarCut is the Jaccard-distance cut defining a "genuinely
// similar" neighbour for the LSH ablation: LSH exists to find strong
// matches (multiusage-level similarity), not weakly overlapping pairs.
const lshSimilarCut = 0.7

// LSHRow compares LSH-accelerated Jaccard nearest-neighbour retrieval
// against the exact linear scan for multiusage detection.
type LSHRow struct {
	Bands, RowsPerBand int
	// Recall10 is the mean fraction of each source's genuinely similar
	// exact neighbours (Jaccard distance ≤ 0.7, at most 10) found among
	// its LSH candidates.
	Recall10 float64
	// MeanCandidates is the mean LSH candidate-set size; the speedup
	// over a linear scan is ≈ population / candidates.
	MeanCandidates float64
	Population     int
}

// LSHAblation indexes window-0 TT signatures and measures candidate
// recall against each source's exact similar neighbours.
func LSHAblation(e *Env, bands, rowsPerBand int) (*LSHRow, error) {
	set, err := e.Sigs(FlowData, core.TopTalkers{}, 0)
	if err != nil {
		return nil, err
	}
	hasher, err := lsh.NewHasher(bands*rowsPerBand, uint64(e.Seed))
	if err != nil {
		return nil, err
	}
	index, err := lsh.NewIndex(hasher, bands, rowsPerBand)
	if err != nil {
		return nil, err
	}
	for i, v := range set.Sources {
		if err := index.Add(v, set.Sigs[i]); err != nil {
			return nil, err
		}
	}
	d := core.Jaccard{}
	const topN = 10
	var recallSum, candSum float64
	queries := 0
	for i, v := range set.Sources {
		if set.Sigs[i].IsEmpty() {
			continue
		}
		// Exact 10-NN by Jaccard distance.
		type nb struct {
			u    graph.NodeID
			dist float64
		}
		exact := make([]nb, 0, set.Len()-1)
		for j, u := range set.Sources {
			if u == v {
				continue
			}
			exact = append(exact, nb{u, d.Dist(set.Sigs[i], set.Sigs[j])})
		}
		sort.Slice(exact, func(a, b int) bool {
			if exact[a].dist != exact[b].dist {
				return exact[a].dist < exact[b].dist
			}
			return exact[a].u < exact[b].u
		})
		if len(exact) > topN {
			exact = exact[:topN]
		}
		cands, err := index.Query(set.Sigs[i], v, 0)
		if err != nil {
			return nil, err
		}
		candSet := map[graph.NodeID]struct{}{}
		for _, c := range cands {
			candSet[c.Node] = struct{}{}
		}
		hits := 0
		denom := 0
		for _, x := range exact {
			if x.dist > lshSimilarCut {
				// Only genuinely similar neighbours count; a node
				// without any has no retrieval task here.
				continue
			}
			denom++
			if _, ok := candSet[x.u]; ok {
				hits++
			}
		}
		if denom > 0 {
			recallSum += float64(hits) / float64(denom)
			candSum += float64(len(cands))
			queries++
		}
	}
	if queries == 0 {
		return nil, fmt.Errorf("experiments: lsh ablation had no usable queries")
	}
	return &LSHRow{
		Bands:          bands,
		RowsPerBand:    rowsPerBand,
		Recall10:       recallSum / float64(queries),
		MeanCandidates: candSum / float64(queries),
		Population:     set.Len(),
	}, nil
}

// DecayRow measures the effect of exponential history decay (§III-A)
// on TT persistence and retrieval.
type DecayRow struct {
	Lambda float64
	// Persistence is mean TT self-persistence between the last two
	// decayed windows.
	Persistence float64
	// AUC is the corresponding self-retrieval AUC.
	AUC float64
}

// DecayAblation sweeps the decay factor λ over the flow windows.
func DecayAblation(e *Env, lambdas []float64) ([]DecayRow, error) {
	d := core.ScaledHellinger{}
	scheme := core.TopTalkers{}
	k := e.k(FlowData)
	var rows []DecayRow
	for _, lambda := range lambdas {
		wins, err := core.DecayCombine(e.windows(FlowData), lambda)
		if err != nil {
			return nil, err
		}
		if len(wins) < 2 {
			return nil, fmt.Errorf("experiments: decay ablation needs ≥2 windows")
		}
		at, err := core.ComputeSet(scheme, wins[len(wins)-2], core.DefaultSources(wins[len(wins)-2]), k)
		if err != nil {
			return nil, err
		}
		next, err := core.ComputeSet(scheme, wins[len(wins)-1], core.DefaultSources(wins[len(wins)-1]), k)
		if err != nil {
			return nil, err
		}
		auc, err := eval.SelfRetrievalAUC(d, at, next)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DecayRow{
			Lambda:      lambda,
			Persistence: eval.PersistenceSummary(d, at, next).Mean,
			AUC:         auc,
		})
	}
	return rows, nil
}

// DirectionRow compares the symmetrized random walk against the
// strictly directed variant (DESIGN.md ablation 1).
type DirectionRow struct {
	Scheme string
	AUC    float64
}

// DirectionAblation runs RWR³ in both walk modes on the flow data.
func DirectionAblation(e *Env) ([]DirectionRow, error) {
	d := core.ScaledHellinger{}
	var rows []DirectionRow
	for _, s := range []core.Scheme{
		core.RandomWalk{C: 0.1, Hops: 3},
		core.RandomWalk{C: 0.1, Hops: 3, Directed: true},
	} {
		at, err := e.Sigs(FlowData, s, 0)
		if err != nil {
			return nil, err
		}
		next, err := e.Sigs(FlowData, s, 1)
		if err != nil {
			return nil, err
		}
		auc, err := eval.SelfRetrievalAUC(d, at, next)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DirectionRow{Scheme: s.Name(), AUC: auc})
	}
	return rows, nil
}

// UTScalingRow compares the two UT popularity-scaling functions.
type UTScalingRow struct {
	Scheme string
	AUC    float64
}

// UTScalingAblation compares 1/|I(j)| against TF-IDF scaling on the
// flow data; the paper reports little variation between them.
func UTScalingAblation(e *Env) ([]UTScalingRow, error) {
	d := core.ScaledHellinger{}
	var rows []UTScalingRow
	for _, s := range []core.Scheme{
		core.UnexpectedTalkers{},
		core.UnexpectedTalkers{Scaling: core.UTTFIDF},
	} {
		at, err := e.Sigs(FlowData, s, 0)
		if err != nil {
			return nil, err
		}
		next, err := e.Sigs(FlowData, s, 1)
		if err != nil {
			return nil, err
		}
		auc, err := eval.SelfRetrievalAUC(d, at, next)
		if err != nil {
			return nil, err
		}
		rows = append(rows, UTScalingRow{Scheme: s.Name(), AUC: auc})
	}
	return rows, nil
}

// KSweepRow measures sensitivity to the signature length k.
type KSweepRow struct {
	K   int
	AUC float64
}

// KSweepAblation sweeps k around the paper's half-average-degree rule
// for TT on the flow data.
func KSweepAblation(e *Env, ks []int) ([]KSweepRow, error) {
	d := core.ScaledHellinger{}
	scheme := core.TopTalkers{}
	w0 := e.windows(FlowData)[0]
	w1 := e.windows(FlowData)[1]
	var rows []KSweepRow
	for _, k := range ks {
		at, err := core.ComputeSet(scheme, w0, core.DefaultSources(w0), k)
		if err != nil {
			return nil, err
		}
		next, err := core.ComputeSet(scheme, w1, core.DefaultSources(w1), k)
		if err != nil {
			return nil, err
		}
		auc, err := eval.SelfRetrievalAUC(d, at, next)
		if err != nil {
			return nil, err
		}
		rows = append(rows, KSweepRow{K: k, AUC: auc})
	}
	return rows, nil
}

// FormatAblations renders all extension/ablation results.
func FormatAblations(streaming []StreamingRow, lshRow *LSHRow, decay []DecayRow, direction []DirectionRow, utScaling []UTScalingRow, ks []KSweepRow) string {
	var b strings.Builder
	b.WriteString("Extension X1: semi-streaming signatures (streamed vs exact), sparse and dense sources apart\n")
	fmt.Fprintf(&b, "%-6s %4s %-7s %8s %10s %10s %8s\n", "scheme", "fm", "state", "sources", "meanDist", "recall", "AUC")
	for _, r := range streaming {
		fm, state := "-", "sparse"
		if r.FMBitmaps > 0 {
			fm = fmt.Sprint(r.FMBitmaps)
		}
		if r.Dense {
			state = "dense"
		}
		fmt.Fprintf(&b, "%-6s %4s %-7s %8d %10.4f %10.4f %8.4f\n", r.Scheme, fm, state, r.Sources, r.MeanDist, r.ExactTopkRecall, r.AUC)
	}
	if lshRow != nil {
		b.WriteString("\nExtension X2: LSH nearest-neighbour (Jaccard)\n")
		fmt.Fprintf(&b, "bands=%d rows=%d recall@10=%.4f mean-candidates=%.1f of %d (scan ratio %.3f)\n",
			lshRow.Bands, lshRow.RowsPerBand, lshRow.Recall10, lshRow.MeanCandidates,
			lshRow.Population, lshRow.MeanCandidates/float64(lshRow.Population))
	}
	b.WriteString("\nExtension X3: exponential history decay (TT)\n")
	fmt.Fprintf(&b, "%8s %12s %8s\n", "lambda", "persistence", "AUC")
	for _, r := range decay {
		fmt.Fprintf(&b, "%8.2f %12.4f %8.4f\n", r.Lambda, r.Persistence, r.AUC)
	}
	b.WriteString("\nAblation: walk directionality (RWR³)\n")
	for _, r := range direction {
		fmt.Fprintf(&b, "%-14s AUC=%.4f\n", r.Scheme, r.AUC)
	}
	b.WriteString("\nAblation: UT scaling function\n")
	for _, r := range utScaling {
		fmt.Fprintf(&b, "%-10s AUC=%.4f\n", r.Scheme, r.AUC)
	}
	b.WriteString("\nAblation: signature length k (TT)\n")
	for _, r := range ks {
		fmt.Fprintf(&b, "k=%-4d AUC=%.4f\n", r.K, r.AUC)
	}
	return b.String()
}
