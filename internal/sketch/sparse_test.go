package sketch

import (
	"math"
	"math/rand"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// eagerRef is the straightforward reading of §VI the extractors must
// stay bit-identical to: every source owns a full Count-Min sketch and
// a candidate map from its first observation on, and a signature reads
// them directly. It is the reference, not a second implementation —
// nothing outside this file uses it.
type eagerRef struct {
	cfg     StreamConfig
	sources map[graph.NodeID]*eagerSource
	indeg   map[graph.NodeID]*FM
}

type eagerSource struct {
	cm    *CountMin
	total float64
	cand  map[graph.NodeID]float64
}

func newEagerRef(cfg StreamConfig) *eagerRef {
	cfg.fill()
	return &eagerRef{cfg: cfg, sources: map[graph.NodeID]*eagerSource{}, indeg: map[graph.NodeID]*FM{}}
}

func (r *eagerRef) observe(t *testing.T, src, dst graph.NodeID, weight float64) {
	t.Helper()
	if src == dst {
		return
	}
	key := r.cfg.Key
	st := r.sources[src]
	if st == nil {
		cm, err := NewCountMin(r.cfg.Depth, r.cfg.Width)
		if err != nil {
			t.Fatal(err)
		}
		st = &eagerSource{cm: cm, cand: map[graph.NodeID]float64{}}
		r.sources[src] = st
	}
	st.cm.Add(key(dst), weight)
	st.total += weight
	st.cand[dst] = st.cm.Estimate(key(dst))
	if len(st.cand) > r.cfg.Candidates {
		var victim graph.NodeID
		victimKey, min := uint64(0), -1.0
		for u, w := range st.cand {
			uk := key(u)
			if min < 0 || w < min || (w == min && (uk > victimKey || (uk == victimKey && u > victim))) {
				victim, victimKey, min = u, uk, w
			}
		}
		delete(st.cand, victim)
	}
	fm := r.indeg[dst]
	if fm == nil {
		var err error
		if fm, err = NewFM(r.cfg.FMBitmaps, splitmix64(r.cfg.Seed^0xF00D)); err != nil {
			t.Fatal(err)
		}
		r.indeg[dst] = fm
	}
	fm.Add(key(src))
}

func (r *eagerRef) signature(v graph.NodeID, k int, ut bool) core.Signature {
	st := r.sources[v]
	if st == nil || st.total == 0 {
		return core.Signature{}
	}
	weights := make(map[graph.NodeID]float64, len(st.cand))
	for u := range st.cand {
		est := st.cm.Estimate(r.cfg.Key(u))
		if !ut {
			weights[u] = est / st.total
			continue
		}
		indeg := r.indeg[u].Estimate()
		if indeg < 1 {
			indeg = 1
		}
		weights[u] = est / indeg
	}
	return core.FromWeightsKeyed(weights, k, r.cfg.Key)
}

// streamExtractor is what the property test drives: both extractors.
type streamExtractor interface {
	Observe(src, dst graph.NodeID, weight float64) error
	Signature(v graph.NodeID, k int) (core.Signature, error)
	Sources() []graph.NodeID
	DenseSources() int
}

func sameSignatureBits(a, b core.Signature) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// TestStreamMatchesEagerReference pins the sparse-until-dense state to
// the eager reference on the bits of every weight: random streams with
// fractional weights, sketches narrow enough that rows collide, bounds
// small enough that eviction runs, per-source observation counts that
// straddle the bound by one on either side, signatures read mid-stream
// (a sparse read must leave nothing behind in the shared scratch
// sketch) and at the end, TT and UT. It also checks the property the
// state exists for: a source materialises a sketch exactly when it has
// seen more observations than the candidate bound.
func TestStreamMatchesEagerReference(t *testing.T) {
	hashed := func(id graph.NodeID) uint64 { return splitmix64(uint64(id)) % 7 } // colliding keys: tie-breaks fall through to the ID
	configs := []StreamConfig{
		{Width: 8, Depth: 2, Candidates: 4, Seed: 3},
		{Width: 8, Depth: 2, Candidates: 12, Seed: 3},
		{Width: 64, Depth: 3, Candidates: 4, Seed: 5, Key: hashed},
		{Width: 16, Depth: 2, Candidates: 1, Seed: 7},
		{Seed: 11}, // the defaults: 256×4, 64 candidates
	}
	for ci, cfg := range configs {
		for _, ut := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
				filled := cfg
				filled.fill()
				bound := filled.Candidates

				// Source i is handed counts[i] observations in all;
				// the first five straddle the bound, the rest are drawn.
				counts := []int{1, max(1, bound-1), bound, bound + 1, bound + 2}
				for len(counts) < 12 {
					counts = append(counts, 1+rng.Intn(6*bound))
				}
				var order []int
				for src, n := range counts {
					for i := 0; i < n; i++ {
						order = append(order, src)
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

				var got streamExtractor = NewStreamTT(cfg)
				if ut {
					got = NewStreamUT(cfg)
				}
				ref := newEagerRef(cfg)
				compare := func(when string) {
					for src := range counts {
						for _, k := range []int{1, 3, bound + 2} {
							sig, err := got.Signature(graph.NodeID(src), k)
							if err != nil {
								t.Fatal(err)
							}
							if want := ref.signature(graph.NodeID(src), k, ut); !sameSignatureBits(sig, want) {
								t.Fatalf("config %d ut=%v seed %d %s: source %d k=%d: got %+v, reference %+v",
									ci, ut, seed, when, src, k, sig, want)
							}
						}
					}
				}
				nDst := 3 * bound
				for i, src := range order {
					dst := graph.NodeID(len(counts) + rng.Intn(nDst))
					weight := float64(1+rng.Intn(5)) + rng.Float64()
					if err := got.Observe(graph.NodeID(src), dst, weight); err != nil {
						t.Fatal(err)
					}
					ref.observe(t, graph.NodeID(src), dst, weight)
					if i%17 == 0 {
						compare("mid-stream")
					}
				}
				compare("at the end")

				wantDense := 0
				for _, n := range counts {
					if n > bound {
						wantDense++
					}
				}
				if got.DenseSources() != wantDense || len(got.Sources()) != len(counts) {
					t.Fatalf("config %d ut=%v seed %d: %d of %d sources dense, want %d of %d (bound %d, counts %v)",
						ci, ut, seed, got.DenseSources(), len(got.Sources()), wantDense, len(counts), bound, counts)
				}
			}
		}
	}
}

// TestStreamRejectsUnusableSketchSizeAtOnce: a negative sketch
// dimension is reported by the first observation, as it was when every
// source allocated its sketch on arrival — not by whichever source
// first outgrows the candidate bound.
func TestStreamRejectsUnusableSketchSizeAtOnce(t *testing.T) {
	for _, cfg := range []StreamConfig{{Depth: -1}, {Width: -3}} {
		if err := NewStreamTT(cfg).Observe(1, 2, 1); err == nil {
			t.Fatalf("StreamTT %+v: first observation accepted", cfg)
		}
		if err := NewStreamUT(cfg).Observe(1, 2, 1); err == nil {
			t.Fatalf("StreamUT %+v: first observation accepted", cfg)
		}
	}
}
