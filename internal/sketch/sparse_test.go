package sketch

import (
	"fmt"
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

// exactRef is the other reference: what a source did, held exactly.
// Per source it keeps the running total and, per destination in order
// of first appearance, the sum of that destination's observations taken
// in arrival order; a signature is core.FromWeightsKeyed over those
// sums divided by the total (TT) or by the FM in-degree estimate (UT —
// the denominators stay sketched).
type exactRef struct {
	cfg   StreamConfig
	total map[graph.NodeID]float64
	sums  map[graph.NodeID]map[graph.NodeID]float64
	indeg map[graph.NodeID]*FM
}

func newExactRef(cfg StreamConfig) *exactRef {
	cfg.fill()
	return &exactRef{cfg: cfg, total: map[graph.NodeID]float64{}, sums: map[graph.NodeID]map[graph.NodeID]float64{}, indeg: map[graph.NodeID]*FM{}}
}

func (r *exactRef) observe(t *testing.T, src, dst graph.NodeID, weight float64) {
	t.Helper()
	if src == dst {
		return
	}
	if r.sums[src] == nil {
		r.sums[src] = map[graph.NodeID]float64{}
	}
	r.sums[src][dst] += weight
	r.total[src] += weight
	fm := r.indeg[dst]
	if fm == nil {
		var err error
		if fm, err = NewFM(r.cfg.FMBitmaps, splitmix64(r.cfg.Seed^0xF00D)); err != nil {
			t.Fatal(err)
		}
		r.indeg[dst] = fm
	}
	fm.Add(r.cfg.Key(src))
}

func (r *exactRef) signature(v graph.NodeID, k int, ut bool) core.Signature {
	weights := make(map[graph.NodeID]float64, len(r.sums[v]))
	for u, sum := range r.sums[v] {
		if !ut {
			weights[u] = sum / r.total[v]
			continue
		}
		weights[u] = sum / max(1, r.indeg[u].Estimate())
	}
	return core.FromWeightsKeyed(weights, k, r.cfg.Key)
}

// streamCase is one random stream of the two property tests below.
type streamCase struct {
	cfg    StreamConfig
	ut     bool
	counts []int // source i makes counts[i] observations in all
	order  []int // the source of each observation, shuffled
	rng    *rand.Rand
}

func (c *streamCase) extractor() streamExtractor {
	if c.ut {
		return NewStreamUT(c.cfg)
	}
	return NewStreamTT(c.cfg)
}

// streamCases draws, per config, scheme and seed, a stream whose first
// sources make 1, bound−1, bound, bound+1 and bound+2 observations and
// whose other sources make a drawn number up to maxCount(bound).
func streamCases(configs []StreamConfig, maxCount func(bound int) int, each func(name string, c *streamCase, bound int)) {
	for ci, cfg := range configs {
		for _, ut := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
				filled := cfg
				filled.fill()
				bound := filled.Candidates
				counts := []int{1, max(1, bound-1), bound, bound + 1, bound + 2}
				for len(counts) < 12 {
					counts = append(counts, 1+rng.Intn(maxCount(bound)))
				}
				var order []int
				for src, n := range counts {
					for i := 0; i < n; i++ {
						order = append(order, src)
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				each(fmt.Sprintf("config %d ut=%v seed %d", ci, ut, seed),
					&streamCase{cfg: cfg, ut: ut, counts: counts, order: order, rng: rng}, bound)
			}
		}
	}
}

// streamOracle is either reference.
type streamOracle interface {
	observe(t *testing.T, src, dst graph.NodeID, weight float64)
	signature(v graph.NodeID, k int, ut bool) core.Signature
}

// holdTo drives c's stream (destinations and weights from draw) through
// a fresh extractor and through ref, and holds the extractor to ref on
// the bits of every signature of every source on ref's side of the
// bound — past it (dense) or within it — at k below, at and above what
// a source can hold: every 17 observations, whenever a source's count
// is within one of the bound, and at the end.
func (c *streamCase) holdTo(t *testing.T, name string, bound int, ref streamOracle, dense bool, draw func() (graph.NodeID, float64)) streamExtractor {
	t.Helper()
	got := c.extractor()
	seen := make([]int, len(c.counts))
	compared := 0
	compare := func(when string) {
		for src := range c.counts {
			if (seen[src] > bound) != dense {
				continue
			}
			for _, k := range []int{1, 3, bound + 2} {
				sig, err := got.Signature(graph.NodeID(src), k)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.signature(graph.NodeID(src), k, c.ut); !sameSignatureBits(sig, want) {
					t.Fatalf("%s %s: source %d k=%d after %d observations (dense: %v): got %+v, reference %+v",
						name, when, src, k, seen[src], dense, sig, want)
				}
				compared++
			}
		}
	}
	for i, src := range c.order {
		dst, weight := draw()
		if err := got.Observe(graph.NodeID(src), dst, weight); err != nil {
			t.Fatal(err)
		}
		ref.observe(t, graph.NodeID(src), dst, weight)
		seen[src]++
		if i%17 == 0 || (seen[src] >= bound-1 && seen[src] <= bound+1) {
			compare("mid-stream")
		}
	}
	compare("at the end")
	if compared == 0 {
		t.Fatalf("%s: no signature compared", name)
	}
	return got
}

// TestStreamMatchesEagerReference pins the dense half of the
// sparse-until-dense state to the eager reference on the bits of every
// weight: from the observation that carries a source past the candidate
// bound — the one that replays its log into a sketch — its signature is
// the one a sketch kept from the first observation gives. Random
// streams with fractional weights, sketches narrow enough that rows
// collide, bounds small enough that eviction runs, signatures read
// mid-stream and at the end, TT and UT. It also checks the property the
// state exists for: a source materialises a sketch exactly when it has
// seen more observations than the candidate bound. (What a source reads
// as before that is TestStreamSparseMatchesExact's.)
func TestStreamMatchesEagerReference(t *testing.T) {
	hashed := func(id graph.NodeID) uint64 { return splitmix64(uint64(id)) % 7 } // colliding keys: tie-breaks fall through to the ID
	configs := []StreamConfig{
		{Width: 8, Depth: 2, Candidates: 4, Seed: 3},
		{Width: 8, Depth: 2, Candidates: 12, Seed: 3},
		{Width: 64, Depth: 3, Candidates: 4, Seed: 5, Key: hashed},
		{Width: 16, Depth: 2, Candidates: 1, Seed: 7},
		{Seed: 11}, // the defaults: 256×4, 64 candidates
	}
	streamCases(configs, func(bound int) int { return 6 * bound }, func(name string, c *streamCase, bound int) {
		nDst := 3 * bound
		got := c.holdTo(t, name, bound, newEagerRef(c.cfg), true, func() (graph.NodeID, float64) {
			return graph.NodeID(len(c.counts) + c.rng.Intn(nDst)), float64(1+c.rng.Intn(5)) + c.rng.Float64()
		})
		wantDense := 0
		for _, n := range c.counts {
			if n > bound {
				wantDense++
			}
		}
		if got.DenseSources() != wantDense || len(got.Sources()) != len(c.counts) {
			t.Fatalf("%s: %d of %d sources dense, want %d of %d (bound %d, counts %v)",
				name, got.DenseSources(), len(got.Sources()), wantDense, len(c.counts), bound, c.counts)
		}
	})
}

// TestStreamSparseMatchesExact pins the sparse half: while a source has
// made no more observations than the candidate bound, its signature is
// the exact one — core.FromWeightsKeyed over per-destination sums taken
// in arrival order, over the exact total (TT) or the FM in-degree (UT)
// — on the bits of every weight, however narrow the sketch it would
// grow into. Integer and fractional weights, destinations few enough to
// repeat, logs of exactly bound−1 and bound entries (bound+1 is dense,
// and the eager reference's), signatures read mid-stream and at the
// end.
func TestStreamSparseMatchesExact(t *testing.T) {
	hashed := func(id graph.NodeID) uint64 { return splitmix64(uint64(id)) % 7 }
	configs := []StreamConfig{
		{Width: 8, Depth: 2, Candidates: 4, Seed: 3},
		{Width: 1, Depth: 1, Candidates: 12, Seed: 3}, // one cell: every estimate would be the total
		{Width: 64, Depth: 3, Candidates: 9, Seed: 5, Key: hashed},
		{Width: 16, Depth: 2, Candidates: 1, Seed: 7},
		{Width: 4096, Depth: 5, Candidates: 256, Seed: 1}, // sigserverd's
		{Seed: 11},
	}
	streamCases(configs, func(bound int) int { return bound }, func(name string, c *streamCase, bound int) {
		nDst := max(2, bound/2) // repeats guaranteed as a log fills
		integer := c.rng.Intn(2) == 0
		got := c.holdTo(t, name, bound, newExactRef(c.cfg), false, func() (graph.NodeID, float64) {
			weight := float64(1 + c.rng.Intn(5))
			if !integer {
				weight += c.rng.Float64()
			}
			return graph.NodeID(len(c.counts) + c.rng.Intn(nDst)), weight
		})
		if got.DenseSources() != 2 { // the bound+1 and bound+2 sources
			t.Fatalf("%s: %d sources dense, want 2", name, got.DenseSources())
		}
	})
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
