package sketch

import (
	"fmt"
	"math"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// StreamConfig sizes the per-node state of the streaming signature
// extractors. Zero values take the defaults noted per field.
type StreamConfig struct {
	// Depth and Width size each source's Count-Min sketch
	// (defaults 4 × 256): Depth × Width float64 counters, allocated
	// when the source outgrows Candidates observations.
	Depth, Width int
	// Candidates caps each source's tracked heavy-neighbour set; it
	// must be at least the signature length k you will ask for
	// (default 64). It is also how many observations a source may make
	// before it is summarised at all: up to here a source is held as
	// the list of what it did, 24 bytes an observation.
	Candidates int
	// FMBitmaps sizes the per-destination in-degree sketch used by the
	// UT extractor; power of two (default 16).
	FMBitmaps int
	// Seed drives the hash families.
	Seed uint64
	// Key maps a NodeID to the 64-bit key fed into the hash-based
	// summaries (CM, FM) and used to break weight ties during top-k
	// selection and candidate eviction. Nil keys on the raw NodeID —
	// deterministic within one process but not across processes, since
	// NodeIDs follow interning order. Extractors that must agree across
	// processes over different stream subsets (cluster shards vs a
	// single node) pass a label-derived key (graph.Universe.StableKey).
	Key func(graph.NodeID) uint64
}

func (c *StreamConfig) fill() {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Width == 0 {
		c.Width = 256
	}
	if c.Candidates == 0 {
		c.Candidates = 64
	}
	if c.FMBitmaps == 0 {
		c.FMBitmaps = 16
	}
	if c.Key == nil {
		c.Key = func(id graph.NodeID) uint64 { return uint64(id) }
	}
}

// sourceState is the per-source state of §VI: the running total plus
// either a log of what the source did or the constant-size summary of
// it. A source starts sparse — an arrival-order log of its
// observations. While the log holds at most cfg.Candidates entries the
// candidate set cannot have evicted anything, so the log is all there
// is to know, and the source costs what it did. The observation that
// would overflow the log turns the source dense: a CM sketch of
// outgoing weights and the tracked heavy-candidate set (the "CM-sketch
// heap" of §VI), built by replaying the log in order, so every cell
// receives the additions it always would have, in the same order.
type sourceState struct {
	total float64
	log   []observation              // sparse; nil once dense
	cm    *CountMin                  // dense; nil while sparse
	cand  map[graph.NodeID]candidate // dense: the tracked heavy candidates
}

// candidate is a tracked destination of a dense source: its cfg.Key,
// kept so that neither the eviction scan nor a signature hashes a label
// again, and its CM estimate when last observed.
type candidate struct {
	key uint64
	est float64
}

// observation is one logged communication of a still-sparse source.
type observation struct {
	dst    graph.NodeID
	key    uint64 // cfg.Key(dst)
	weight float64
}

func (st *sourceState) observe(dst graph.NodeID, dstKey uint64, weight float64, cap int) {
	st.cm.Add(dstKey, weight)
	st.total += weight
	st.cand[dst] = candidate{key: dstKey, est: st.cm.Estimate(dstKey)}
	if len(st.cand) > cap {
		// Evict the current lightest candidate (ties by larger key,
		// then larger ID, so eviction is deterministic — and, with a
		// label-derived key, identical across processes).
		var victim graph.NodeID
		victimKey := uint64(0)
		min := -1.0
		for u, c := range st.cand {
			if min < 0 || c.est < min || (c.est == min && (c.key > victimKey || (c.key == victimKey && u > victim))) {
				victim, victimKey, min = u, c.key, c.est
			}
		}
		delete(st.cand, victim)
	}
}

// StreamTT computes Top Talkers signatures from a single pass over an
// edge stream (§VI "Scalable signature computation"): per source it
// keeps a CM sketch of outgoing weights plus a bounded heavy candidate
// set, from which the top-k normalized weights form the signature. A
// source that has made no more than cfg.Candidates observations is
// held as the list of them instead (see sourceState), and its
// signature is not an approximation: it is the exact TT signature of
// what the source did, read from that list.
type StreamTT struct {
	cfg     StreamConfig
	sources map[graph.NodeID]*sourceState
	dense   int     // sources that have materialised a sketch
	badSize error   // an unusable sketch size, reported by every Observe
	scratch Scratch // Signature's, reused from call to call
}

// Scratch is the working memory of a signature extraction: one entry
// per candidate, and the table that finds a logged destination's. It is
// reused from call to call. Extractions that run at the same time need
// one each (SignatureWith); Signature uses the extractor's own.
type Scratch struct {
	entries []core.KeyedEntry
	slots   []int32
}

// NewStreamTT builds an extractor.
func NewStreamTT(cfg StreamConfig) *StreamTT {
	cfg.fill()
	return &StreamTT{cfg: cfg, sources: map[graph.NodeID]*sourceState{}, badSize: checkSize(cfg.Depth, cfg.Width)}
}

// Observe ingests one communication src → dst of the given weight.
// Self-communications are ignored, mirroring the graph builder.
func (s *StreamTT) Observe(src, dst graph.NodeID, weight float64) error {
	if !(weight > 0) || math.IsInf(weight, 1) { // NaN fails the first test
		return fmt.Errorf("sketch: stream observation weight must be positive and finite, got %g", weight)
	}
	if src == dst {
		return nil
	}
	if s.badSize != nil {
		// On the first observation, not on the first source to outgrow
		// its log.
		return s.badSize
	}
	st, ok := s.sources[src]
	if !ok {
		st = &sourceState{}
		s.sources[src] = st
	}
	dstKey := s.cfg.Key(dst)
	if st.cm == nil {
		if len(st.log) < s.cfg.Candidates {
			st.log = append(st.log, observation{dst: dst, key: dstKey, weight: weight})
			st.total += weight
			return nil
		}
		s.materialise(st)
	}
	st.observe(dst, dstKey, weight, s.cfg.Candidates)
	return nil
}

// materialise turns a sparse source dense by replaying its log through
// observe, in arrival order.
func (s *StreamTT) materialise(st *sourceState) {
	log := st.log
	cm, _ := NewCountMin(s.cfg.Depth, s.cfg.Width) // the size was checked at construction
	*st = sourceState{cm: cm, cand: make(map[graph.NodeID]candidate, s.cfg.Candidates+1)}
	for _, o := range log {
		st.observe(o.dst, o.key, o.weight, s.cfg.Candidates)
	}
	s.dense++
}

// Sources returns the sources observed so far, unordered.
func (s *StreamTT) Sources() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.sources))
	for v := range s.sources {
		out = append(out, v)
	}
	return out
}

// DenseSources reports how many of the sources have outgrown their log
// and hold a sketch; the rest cost only what they observed.
func (s *StreamTT) DenseSources() int { return s.dense }

// Dense reports whether v is one of them.
func (s *StreamTT) Dense(v graph.NodeID) bool {
	st := s.sources[v]
	return st != nil && st.cm != nil
}

// counts returns one entry per candidate of st, weighted by the
// weight st sent it — as far as st knows it. A dense source knows its
// tracked candidates' CM estimates. A sparse source knows everything:
// its candidates are the destinations in its log, in order of first
// appearance, each with the sum of its observations taken in arrival
// order (the additions one sketch cell would have received, without
// the other destinations hashed into it). The entries are sc's and
// last until its next use. counts only reads s, so calls with scratches
// of their own may run at the same time.
func (s *StreamTT) counts(sc *Scratch, st *sourceState) []core.KeyedEntry {
	out := sc.entries[:0]
	if st.cm != nil {
		for u, c := range st.cand {
			out = append(out, core.KeyedEntry{Node: u, Key: c.key, Weight: st.cm.Estimate(c.key)})
		}
		sc.entries = out
		return out
	}
	// slots is an open-addressed table from destination to 1 + its
	// index in out, sized so at least half of it stays empty. (A Go map
	// cleared per call does the same a third slower: 1.3 ms more per
	// close of 1 200 sources, BenchmarkPipelineWindow/sparse.)
	size := 4
	for size < 2*len(st.log) {
		size <<= 1
	}
	if cap(sc.slots) < size {
		sc.slots = make([]int32, size)
	}
	slots := sc.slots[:size]
	clear(slots)
	for _, o := range st.log {
		i := splitmix64(uint64(o.dst)) & uint64(size-1)
		for slots[i] != 0 && out[slots[i]-1].Node != o.dst {
			i = (i + 1) & uint64(size-1)
		}
		if slots[i] == 0 {
			out = append(out, core.KeyedEntry{Node: o.dst, Key: o.key, Weight: o.weight})
			slots[i] = int32(len(out))
		} else {
			out[slots[i]-1].Weight += o.weight
		}
	}
	sc.entries = out // keep what append grew
	return out
}

// Signature extracts the TT signature of v: each candidate's count —
// exact for a sparse source, CM-estimated for a dense one — over the
// exact running total.
func (s *StreamTT) Signature(v graph.NodeID, k int) (core.Signature, error) {
	return s.SignatureWith(&s.scratch, v, k)
}

// SignatureWith is Signature in sc's working memory. It only reads the
// extractor, so extractions with scratches of their own may run at the
// same time, as long as nothing observes.
func (s *StreamTT) SignatureWith(sc *Scratch, v graph.NodeID, k int) (core.Signature, error) {
	if k <= 0 {
		return core.Signature{}, fmt.Errorf("sketch: k must be positive, got %d", k)
	}
	st, ok := s.sources[v]
	if !ok || st.total == 0 {
		return core.Signature{}, nil
	}
	cand := s.counts(sc, st)
	for i := range cand {
		cand[i].Weight /= st.total
	}
	return core.TopKKeyed(cand, k), nil
}

// StreamUT computes approximate Unexpected Talkers signatures from one
// pass: the TT machinery estimates C[i,j], and a per-destination FM
// sketch estimates the distinct in-neighbour count |I(j)|; their
// quotient approximates Definition 4's relevance (§VI).
type StreamUT struct {
	tt     *StreamTT
	indeg  map[graph.NodeID]*FM
	cfg    StreamConfig
	fmSeed uint64
}

// NewStreamUT builds an extractor.
func NewStreamUT(cfg StreamConfig) *StreamUT {
	cfg.fill()
	return &StreamUT{
		tt:     NewStreamTT(cfg),
		indeg:  map[graph.NodeID]*FM{},
		cfg:    cfg,
		fmSeed: splitmix64(cfg.Seed ^ 0xF00D),
	}
}

// Observe ingests one communication src → dst of the given weight.
func (s *StreamUT) Observe(src, dst graph.NodeID, weight float64) error {
	if err := s.tt.Observe(src, dst, weight); err != nil {
		return err
	}
	if src == dst {
		return nil
	}
	fm, ok := s.indeg[dst]
	if !ok {
		var err error
		fm, err = NewFM(s.cfg.FMBitmaps, s.fmSeed)
		if err != nil {
			return err
		}
		s.indeg[dst] = fm
	}
	fm.Add(s.cfg.Key(src))
	return nil
}

// Sources returns the sources observed so far, unordered.
func (s *StreamUT) Sources() []graph.NodeID { return s.tt.Sources() }

// DenseSources reports how many of the sources hold a sketch.
func (s *StreamUT) DenseSources() int { return s.tt.DenseSources() }

// Dense reports whether v is one of them.
func (s *StreamUT) Dense(v graph.NodeID) bool { return s.tt.Dense(v) }

// EstimateInDegree reports the FM estimate of |I(j)|, at least 1 for
// any destination that has been observed.
func (s *StreamUT) EstimateInDegree(j graph.NodeID) float64 {
	fm, ok := s.indeg[j]
	if !ok {
		return 0
	}
	est := fm.Estimate()
	if est < 1 {
		est = 1
	}
	return est
}

// Signature extracts the approximate UT signature of v.
func (s *StreamUT) Signature(v graph.NodeID, k int) (core.Signature, error) {
	return s.SignatureWith(&s.tt.scratch, v, k)
}

// SignatureWith is Signature in sc's working memory; like
// StreamTT.SignatureWith it only reads the extractor.
func (s *StreamUT) SignatureWith(sc *Scratch, v graph.NodeID, k int) (core.Signature, error) {
	if k <= 0 {
		return core.Signature{}, fmt.Errorf("sketch: k must be positive, got %d", k)
	}
	st, ok := s.tt.sources[v]
	if !ok || st.total == 0 {
		return core.Signature{}, nil
	}
	cand := s.tt.counts(sc, st)
	for i := range cand {
		// At least 1 for a destination Observe got as far as counting;
		// one it did not divides to +Inf and is dropped.
		cand[i].Weight /= s.EstimateInDegree(cand[i].Node)
	}
	return core.TopKKeyed(cand, k), nil
}
