// Package distmat is the parallel sparse pairwise-distance engine: the
// layer every all-pairs signature job in this module rides (§IV property
// metrics, §V applications, the sigserverd search path).
//
// It combines three ideas:
//
//  1. Structure-of-arrays kernels: every signature set is flattened
//     into one contiguous node-ID array, one weight array and a shared
//     offset table (core.FlatSigs), and the distance kernels
//     (core.DistKernel) index those flat arrays directly. An all-pairs
//     job walks a handful of cache-resident slices instead of chasing
//     per-signature headers, and for every registered distance the whole
//     row is computed by scattering the shared-node sums — a count,
//     Σ(wa+wb), a dot product, Σ min(wa,wb), Σ √wa·√wb — into flat
//     per-candidate accumulators during posting enumeration, each
//     finished in O(1) (core.DistKernel.ScatterFinish): no per-pair
//     kernel call at all. Every registered distance is exactly
//     symmetric (internal/core/kernel.go): each sum adds its terms in
//     ascending order, which a scatter's order already is for a
//     candidate sharing one or two nodes; the few sharing more have
//     their terms kept and sorted.
//  2. An inverted index (node → posting list of signature indices):
//     all-pairs jobs enumerate only pairs that share at least one node
//     and resolve the (dominant) disjoint remainder in closed form —
//     for every Validate-clean signature pair sharing no node the
//     distance is exactly 1.0 (0.0 when both are empty), see
//     internal/core/kernel.go. Posting entries carry the node's
//     canonical index inside the column signature, so a scatter reads
//     the column's weight with no search. A computed row is therefore
//     its candidates (Candidates): the columns sharing a node with it —
//     for an empty row, the empty columns, at 0 — every other column
//     being at exactly 1. Rows spreads them over a row of ones; MapRows
//     hands them to a reducer, which counts the rest in closed form; and
//     MapTriangle does so for a same-set job above the diagonal only,
//     every unordered pair once.
//  3. Parallel execution that keeps every core busy: one set of workers
//     per job takes 16-row blocks in ascending order from a shared
//     counter and writes each block into a ring of 2·workers slots, a
//     slot claimed only once the consumer has passed its previous block
//     (TestEngineRowsSlowWorkerKeepsItsSlot). The calling goroutine
//     delivers a block, in ascending row order, as soon as it is
//     complete, so its work overlaps the next blocks' computation. Rows
//     delivers whole rows; MapRows and MapTriangle run a per-row reducer
//     inside the worker and deliver one small value per row, so a
//     reduction over n² cells costs the caller only n steps. PairsWithin
//     concatenates per-chunk outputs in chunk order. Either way the
//     output is bit-identical to a single-threaded run
//     (TestEngineParallelIdenticalToSequential, TestMapRowsMatchesRows,
//     TestMapTriangleMatchesRows, TestPairsWithinMatchesNaive, all at
//     several worker counts), a panicking consumer strands no worker
//     (TestEngineRowsConsumerPanic), and a job allocates per worker, not
//     per row (TestEngineParallelAllocBudget).
//
// All matcher and row scratch is recycled through a package-level pool
// shared across engines, queriers and shards: steady-state jobs (eval
// loops, store searches, router scatter-gather) allocate nothing per
// row once the pool is warm. Only the column side of a row job is read
// through its index: the row side of a cross-set engine, and both sides
// of a pointwise one (NewPointwise), are flat signatures alone.
//
// A core.Distance that is not one of the registered kinds rides the same
// scheduler and delivery order, but nothing above is assumed of it:
// every cell is a d.Dist call on the two Signatures, and every column a
// candidate (see Engine.dist).
//
// Determinism contract: every cell (i,j) is computed by exactly one
// worker from immutable inputs, and consumers observe rows in ascending
// order; results never depend on GOMAXPROCS or scheduling.
package distmat

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// Metrics is optional engine instrumentation (see internal/obs). Nil
// fields — and the zero Metrics — are no-ops, so attaching it costs a
// predictable branch per row when disabled.
type Metrics struct {
	// RowSeconds observes the wall time of each computed row (one
	// query signature against every column), in seconds.
	RowSeconds *obs.Histogram
	// Candidates observes the inverted-index candidate count per row:
	// how many columns shared at least one node with the query.
	Candidates *obs.Histogram
}

// instrumented reports whether a timing handle is attached, so the hot
// loop skips clock reads entirely when observability is off.
func (m Metrics) instrumented() bool { return m.RowSeconds != nil || m.Candidates != nil }

// posting is one inverted-index entry: signature j contains the node,
// at canonical index idx within that signature.
type posting struct {
	j   int32
	idx int32
}

// SetView is the engine-side view of a SignatureSet: the flat SoA
// layout of every signature (core.FlatSigs), the inverted index, and the
// precomputed disjoint baseline row. Build it once per set
// (O(n·k·log k)) and reuse it; it is immutable afterwards and safe for
// concurrent use.
//
// The inverted index has two representations. When the node-ID space is
// dense (max ID comparable to the number of posting entries — the
// common case for the trace datasets, whose hosts are numbered
// contiguously) it is a CSR layout: postings for node u live at
// bulk[offs[u]:offs[u+1]]. That build hashes nothing and the arrays are
// pointer-free, so lookups are one bounds check plus two loads and the
// garbage collector never scans the index. Sparse or negative ID spaces
// fall back to a map keyed by node.
type SetView struct {
	set  *core.SignatureSet
	flat *core.FlatSigs
	offs []int32                    // CSR offsets (dense index); nil when the map is in use
	bulk []posting                  // all postings, grouped by node (CSR) in ascending j
	post map[graph.NodeID][]posting // node → postings in ascending j (fallback)
	// The disjoint baseline of a dense row, all 1: the distance to every
	// column the row shares no node with. An empty row's empty columns,
	// at 0, are its candidates. Nil on a view with no index (flatView).
	ones     []float64
	emptyIdx []int32 // indices of empty signatures, ascending
}

// denseSlack bounds how much larger than the posting count the node-ID
// range may be before the CSR offsets array is considered wasteful and
// the map representation is used instead.
const denseSlack = 8

// NewSetView builds the engine view of set.
func NewSetView(set *core.SignatureSet) *SetView {
	n := set.Len()
	v := &SetView{
		set:  set,
		flat: core.NewFlatSigs(set.Sigs),
		ones: make([]float64, n),
	}
	total := 0
	maxNode := graph.NodeID(-1)
	dense := true
	for i := 0; i < n; i++ {
		v.ones[i] = 1
		if v.flat.IsEmpty(i) {
			v.emptyIdx = append(v.emptyIdx, int32(i))
			continue
		}
		for _, u := range v.flat.Nodes(i) {
			if u < 0 {
				dense = false
			} else if u > maxNode {
				maxNode = u
			}
			total++
		}
	}
	if dense && int64(maxNode)+1 <= denseSlack*int64(total)+64 {
		v.buildDense(int(maxNode)+1, total)
	} else {
		v.buildMap(total)
	}
	return v
}

// flatView is a view of set read only through its flat signatures — the
// row side of a cross-set engine, both sides of a pointwise one: no
// posting index and no baseline.
func flatView(set *core.SignatureSet) *SetView {
	return &SetView{set: set, flat: core.NewFlatSigs(set.Sigs)}
}

// buildDense fills the CSR index: count per node, prefix-sum into
// offsets, then scatter the postings — no hashing, no per-node slices.
func (v *SetView) buildDense(nodes, total int) {
	offs := make([]int32, nodes+1)
	for i := 0; i < v.flat.NumSigs(); i++ {
		for _, u := range v.flat.Nodes(i) {
			offs[u+1]++
		}
	}
	for u := 0; u < nodes; u++ {
		offs[u+1] += offs[u]
	}
	bulk := make([]posting, total)
	next := make([]int32, nodes)
	for i := 0; i < v.flat.NumSigs(); i++ {
		for bi, u := range v.flat.Nodes(i) {
			slot := offs[u] + next[u]
			next[u]++
			bulk[slot] = posting{j: int32(i), idx: int32(bi)}
		}
	}
	v.offs, v.bulk = offs, bulk
}

// buildMap fills the map index in two passes: count, then fill
// exact-capacity lists carved from one bulk allocation.
func (v *SetView) buildMap(total int) {
	counts := make(map[graph.NodeID]int32)
	for i := 0; i < v.flat.NumSigs(); i++ {
		for _, u := range v.flat.Nodes(i) {
			counts[u]++
		}
	}
	v.post = make(map[graph.NodeID][]posting, len(counts))
	bulk := make([]posting, total)
	off := 0
	for i := 0; i < v.flat.NumSigs(); i++ {
		for bi, u := range v.flat.Nodes(i) {
			list, ok := v.post[u]
			if !ok {
				c := int(counts[u])
				list = bulk[off : off : off+c]
				off += c
			}
			v.post[u] = append(list, posting{j: int32(i), idx: int32(bi)})
		}
	}
}

// postings returns the inverted-index entries for node u, in ascending
// signature index.
func (v *SetView) postings(u graph.NodeID) []posting {
	if v.offs != nil {
		if u >= 0 && int(u) < len(v.offs)-1 {
			return v.bulk[v.offs[u]:v.offs[u+1]]
		}
		return nil
	}
	return v.post[u]
}

// postingsFrom returns the postings of node u with j ≥ minJ: a posting
// list ascends in j, so a triangle row skips the columns below it by a
// binary search, not a scan.
func (v *SetView) postingsFrom(u graph.NodeID, minJ int32) []posting {
	ps := v.postings(u)
	if minJ > 0 {
		k, _ := slices.BinarySearchFunc(ps, minJ, func(p posting, j int32) int { return cmp.Compare(p.j, j) })
		ps = ps[k:]
	}
	return ps
}

// Set returns the underlying signature set.
func (v *SetView) Set() *core.SignatureSet { return v.set }

// Len reports the number of signatures.
func (v *SetView) Len() int { return v.flat.NumSigs() }

// Flat returns the SoA view of the set's signatures.
func (v *SetView) Flat() *core.FlatSigs { return v.flat }

// scratch is the recyclable per-worker state: the kernel, the
// epoch-stamped candidate dedup arrays, the scatter accumulators, a row
// buffer, and a single-signature SoA view for query-side jobs. Instances
// cycle through a package-level pool shared by every engine, querier and
// shard, so steady-state jobs allocate nothing per row.
type scratch struct {
	kern  core.DistKernel
	mark  []uint32 // epoch stamps per column
	epoch uint32
	cands []int32   // candidate columns, in discovery order
	vals  []float64 // vals[k] is the distance to column cands[k]
	cnt   []int32   // per-candidate shared-entry count
	acc   []float64 // per-candidate numerator: ScatterFinish's num
	mins  []float64 // per-candidate Σ min(wa,wb) beside acc (ScaledHellinger)
	// The terms of a weighted candidate sharing two nodes or more, kept
	// for scratch.ascending: the first two of acc in t0 and t1, of mins
	// in m0 and m1, any further ones in more, a list per candidate from
	// head; xs and ys sort them.
	t0, t1, m0, m1 []float64
	head           []int32
	more           []term
	xs, ys         []float64

	row   []float64 // a dense row (sequential Rows, Querier, PairsWithin at maxDist ≥ 1)
	pairs []Pair    // a PairsWithin worker's output, chunk after chunk
	qsig  [1]core.Signature
	qflat core.FlatSigs // SoA view of qsig — the query side of Querier jobs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch checks a scratch out of the pool, re-pointed at kind and
// grown to serve n columns.
func getScratch(kind core.KernelKind, n int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.kern.Reset(kind)
	s.grow(n)
	return s
}

func (s *scratch) release() {
	s.qsig[0] = core.Signature{} // do not retain caller signatures across jobs
	scratchPool.Put(s)
}

// grow makes the scratch serve a column set of n signatures.
func (s *scratch) grow(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.vals = make([]float64, n)
		s.cnt = make([]int32, n)
		s.acc = make([]float64, n)
		s.mins = make([]float64, n)
		s.t0, s.t1 = make([]float64, n), make([]float64, n)
		s.m0, s.m1 = make([]float64, n), make([]float64, n)
		s.head = make([]int32, n)
		s.epoch = 0
	}
}

// The gathers enumerate the postings of a row's nodes qn, collecting
// each candidate j ≥ minJ once in s.cands with its shared count in s.cnt
// and the sums its kind's ScatterFinish takes, added in the order the
// postings come. That is ascending order for a candidate sharing one or
// two nodes; for one sharing more, again keeps the terms for finish to
// sort. The weighted gathers walk the row's nodes lightest first, so the
// kept terms come nearly sorted already. One loop per kind: a
// per-posting dispatch would cost more than the scatter itself.

// begin starts a gather.
func (s *scratch) begin() {
	s.cands = s.cands[:0]
	s.more = s.more[:0]
	s.epoch++
}

// gatherCount collects the shared-entry count into s.cnt (Jaccard).
func (s *scratch) gatherCount(qn []graph.NodeID, cols *SetView, minJ int32) {
	s.begin()
	for _, u := range qn {
		for _, p := range cols.postingsFrom(u, minJ) {
			if s.mark[p.j] != s.epoch {
				s.mark[p.j] = s.epoch
				s.cnt[p.j] = 0
				s.cands = append(s.cands, p.j)
			}
			s.cnt[p.j]++
		}
	}
}

// first records candidate j's first shared node, of terms x (acc) and
// y (mins), and reports false if j is a candidate already.
func (s *scratch) first(j int32, x, y float64) bool {
	if s.mark[j] == s.epoch {
		return false
	}
	s.mark[j] = s.epoch
	s.cnt[j] = 1
	s.acc[j], s.mins[j] = x, y
	s.cands = append(s.cands, j)
	return true
}

// again records candidate j's second or later shared node, of terms x
// and y: acc and mins add up the first two, and from the second on the
// terms are kept for scratch.ascending — the first two in t0/t1 and
// m0/m1, the rest in more.
func (s *scratch) again(j int32, x, y float64) {
	if s.cnt[j] == 1 {
		s.t0[j], s.t1[j] = s.acc[j], x
		s.m0[j], s.m1[j] = s.mins[j], y
		s.acc[j] += x
		s.mins[j] += y
		s.head[j] = -1
	} else {
		s.more = append(s.more, term{s.head[j], x, y})
		s.head[j] = int32(len(s.more) - 1)
	}
	s.cnt[j]++
}

// term is a shared node's terms past a candidate's second: x for acc,
// y for mins, and the index in scratch.more of the candidate's previous
// such term (-1: none).
type term struct {
	next int32
	x, y float64
}

// gatherSum collects the Dice numerator Σ(wa+wb).
func (s *scratch) gatherSum(qn []graph.NodeID, qw []float64, cols *SetView, minJ int32) {
	s.begin()
	offs, cw := cols.flat.RawOffs(), cols.flat.RawWeights()
	for ai := len(qn) - 1; ai >= 0; ai-- {
		wa := qw[ai]
		for _, p := range cols.postingsFrom(qn[ai], minJ) {
			if x := wa + cw[offs[p.j]+p.idx]; !s.first(p.j, x, 0) {
				s.again(p.j, x, 0)
			}
		}
	}
}

// gatherDot collects the Cosine numerator Σ(wa·wb).
func (s *scratch) gatherDot(qn []graph.NodeID, qw []float64, cols *SetView, minJ int32) {
	s.begin()
	offs, cw := cols.flat.RawOffs(), cols.flat.RawWeights()
	for ai := len(qn) - 1; ai >= 0; ai-- {
		wa := qw[ai]
		for _, p := range cols.postingsFrom(qn[ai], minJ) {
			if x := wa * cw[offs[p.j]+p.idx]; !s.first(p.j, x, 0) {
				s.again(p.j, x, 0)
			}
		}
	}
}

// gatherMin collects Σ min(wa,wb), over the row weights qw and the flat
// column weights cw: raw for ScaledDice, normalized for
// WeightedJaccard.
func (s *scratch) gatherMin(qn []graph.NodeID, qw, cw []float64, cols *SetView, minJ int32) {
	s.begin()
	offs := cols.flat.RawOffs()
	for ai := len(qn) - 1; ai >= 0; ai-- {
		wa := qw[ai]
		for _, p := range cols.postingsFrom(qn[ai], minJ) {
			if x := min(wa, cw[offs[p.j]+p.idx]); !s.first(p.j, x, 0) {
				s.again(p.j, x, 0)
			}
		}
	}
}

// gatherHel collects ScaledHellinger's two sums: the affinity
// Σ √wa·√wb into s.acc and Σ min(wa,wb) into s.mins. qs holds the
// row's square roots.
func (s *scratch) gatherHel(qn []graph.NodeID, qw, qs []float64, cols *SetView, minJ int32) {
	s.begin()
	offs, cw, cs := cols.flat.RawOffs(), cols.flat.RawWeights(), cols.flat.RawSqrtWeights()
	for ai := len(qn) - 1; ai >= 0; ai-- {
		wa, sa := qw[ai], qs[ai]
		for _, p := range cols.postingsFrom(qn[ai], minJ) {
			at := offs[p.j] + p.idx
			wb := cw[at]
			if x, y := core.HellingerAffinity(wa, wb, sa, cs[at]), min(wa, wb); !s.first(p.j, x, y) {
				s.again(p.j, x, y)
			}
		}
	}
}

// gather runs the kind's gather for row signature i of rf.
func (s *scratch) gather(rf *core.FlatSigs, i int, cols *SetView, minJ int32) {
	qn := rf.Nodes(i)
	switch s.kern.Kind() {
	case core.KindJaccard:
		s.gatherCount(qn, cols, minJ)
	case core.KindDice:
		s.gatherSum(qn, rf.Weights(i), cols, minJ)
	case core.KindCosine:
		s.gatherDot(qn, rf.Weights(i), cols, minJ)
	case core.KindScaledDice:
		s.gatherMin(qn, rf.Weights(i), cols.flat.RawWeights(), cols, minJ)
	case core.KindWeightedJaccard:
		s.gatherMin(qn, rf.NormWeights(i), cols.flat.RawNormWeights(), cols, minJ)
	default:
		s.gatherHel(qn, rf.Weights(i), rf.SqrtWeights(i), cols, minJ)
	}
}

// finish computes the exact distance between row signature i of rf and
// every candidate s.cands[k] into s.vals[k], from what the preceding
// gather collected. ScatterFinish takes each sum added in ascending
// order of its terms: one or two terms add the same in any order, more
// are sorted (scratch.ascending). It reads only the sums the kind
// keeps: mins is 0 but for ScaledHellinger.
func (s *scratch) finish(rf *core.FlatSigs, i int, cols *SetView) {
	vals := s.vals[:len(s.cands)]
	if s.kern.Kind() == core.KindJaccard {
		for k, j := range s.cands {
			vals[k] = s.kern.ScatterFinish(rf, i, cols.flat, int(j), s.cnt[j], 0, 0)
		}
		return
	}
	for k, j := range s.cands {
		num, mins := s.acc[j], s.mins[j]
		if s.cnt[j] > 2 {
			num, mins = s.ascending(j)
		}
		vals[k] = s.kern.ScatterFinish(rf, i, cols.flat, int(j), s.cnt[j], num, mins)
	}
}

// ascending adds the terms of candidate j, which shares three or more
// nodes with the row — t0, t1 and the rest in s.more — in ascending
// order (core.AscendingSum).
func (s *scratch) ascending(j int32) (num, mins float64) {
	xs := append(s.xs[:0], s.t0[j], s.t1[j])
	ys := append(s.ys[:0], s.m0[j], s.m1[j])
	for at := s.head[j]; at >= 0; at = s.more[at].next {
		xs, ys = append(xs, s.more[at].x), append(ys, s.more[at].y)
	}
	// The list runs newest first: back into arrival order, nearly sorted.
	slices.Reverse(xs[2:])
	slices.Reverse(ys[2:])
	s.xs, s.ys = xs, ys
	return core.AscendingSum(xs), core.AscendingSum(ys)
}

// sparse computes rf's signature i against the columns j ≥ minJ of cols
// as candidates: s.cands lists them and s.vals[k] is the distance to
// column s.cands[k]; every other column from minJ on is at exactly 1. A
// non-empty row's candidates are the columns sharing a node with it. An
// empty row's are the empty columns, at 0 in closed form, with nothing
// computed. It reports how many distances were computed.
func (s *scratch) sparse(rf *core.FlatSigs, i int, cols *SetView, minJ int32) int {
	if !rf.IsEmpty(i) {
		s.gather(rf, i, cols, minJ)
		s.finish(rf, i, cols)
		return len(s.cands)
	}
	from, _ := slices.BinarySearch(cols.emptyIdx, minJ)
	s.cands = append(s.cands[:0], cols.emptyIdx[from:]...)
	clear(s.vals[:len(s.cands)])
	return 0
}

// distSpan is sparse for a distance without a kernel, of which no
// closed form is known: every column j ≥ minJ is a candidate, in
// ascending order, at d.Dist.
func (s *scratch) distSpan(d core.Distance, sig core.Signature, cols *SetView, minJ int32) int {
	s.cands = s.cands[:0]
	for j := minJ; int(j) < cols.Len(); j++ {
		s.vals[len(s.cands)] = d.Dist(sig, cols.set.Sigs[j])
		s.cands = append(s.cands, j)
	}
	return len(s.cands)
}

// spread writes the candidates sparse or distSpan left into dst, a dense
// row over the columns from minJ on: 1 at every column, then each
// candidate's distance.
func (s *scratch) spread(cols *SetView, minJ int32, dst []float64) {
	copy(dst[minJ:], cols.ones[minJ:])
	for k, j := range s.cands {
		dst[j] = s.vals[k]
	}
}

// rowBuf returns the scratch's dense per-column buffer, sized for n
// columns.
func (s *scratch) rowBuf(n int) []float64 {
	if cap(s.row) < n {
		s.row = make([]float64, n)
	}
	return s.row[:n]
}

// Engine computes distance rows/pairs between a row set and a column
// set (pass the same set twice for within-window jobs). The engine
// itself is cheap; the SetViews carry the precomputed state.
type Engine struct {
	rows, cols *SetView
	workers    int
	metrics    Metrics
	// kern fixes the engine's kernel kind and serves the sequential Dist
	// method; row jobs run on pooled scratch pointed at the same kind.
	kern core.DistKernel
	// dist is set instead when the distance has no kernel kind: every
	// cell is then dist.Dist on the two Signatures — no disjoint baseline,
	// no empty-row shortcut, no posting walk, since none of those closed
	// forms is known to hold for it.
	dist core.Distance
}

// SetMetrics attaches instrumentation to the engine. Call before the
// first Rows/PairsWithin; rowers built afterwards carry the handles.
func (e *Engine) SetMetrics(m Metrics) { e.metrics = m }

// NewEngine builds an engine over the two signature sets with the given
// worker count (0 = GOMAXPROCS). Every Distance is served — a registered
// one by its kernel, any other by its own Dist — so the bool is always
// true; it stays for bench/, which compiles against this signature. Of
// a cross-set engine's row set only the flat signatures are built: no
// row job reads the row side through an index.
func NewEngine(rowSet, colSet *core.SignatureSet, d core.Distance, workers int) (*Engine, bool) {
	cv := NewSetView(colSet)
	rv := cv
	if rowSet != colSet {
		rv = flatView(rowSet)
	}
	return NewEngineOn(rv, cv, d, workers)
}

// NewEngineOn is NewEngine over prebuilt views (for callers that cache
// SetViews, like the store).
func NewEngineOn(rows, cols *SetView, d core.Distance, workers int) (*Engine, bool) {
	e := &Engine{rows: rows, cols: cols, workers: workers}
	if kind, ok := core.KernelKindOf(d); ok {
		e.kern.Reset(kind)
	} else if e.dist = d; d == nil {
		panic("distmat: nil Distance") // would otherwise run as the zero kernel, Jaccard
	}
	return e, true
}

// NewPointwise returns an engine for jobs that only call Dist, on pairs
// they choose: persistence and robustness compare each source with
// itself. Neither side gets a posting index or a baseline, which only
// row jobs read; Rows, MapRows, MapTriangle and PairsWithin panic on it.
func NewPointwise(rowSet, colSet *core.SignatureSet, d core.Distance) *Engine {
	rv := flatView(rowSet)
	cv := rv
	if colSet != rowSet {
		cv = flatView(colSet)
	}
	e, _ := NewEngineOn(rv, cv, d, 1)
	return e
}

// rower is per-worker state: pooled scratch pointed at the engine's kind.
type rower struct {
	e       *Engine
	s       *scratch
	metrics Metrics
}

func (e *Engine) newRower() rower {
	if e.cols.ones == nil {
		panic("distmat: row job on a pointwise engine")
	}
	return rower{e: e, s: getScratch(e.kern.Kind(), e.cols.Len()), metrics: e.metrics}
}

func (r *rower) release() { r.s.release() }

// candidates computes row i against the columns j ≥ minJ — the kernel's
// candidates (scratch.sparse), or every column for a distance without a
// kernel (scratch.distSpan) — and returns them; they hold until the
// rower's next row.
func (r *rower) candidates(i int, minJ int32) Candidates {
	e, s := r.e, r.s
	// An empty row of a registered distance is all closed form: untimed.
	timed := r.metrics.instrumented() && (e.dist != nil || !e.rows.flat.IsEmpty(i))
	var begin time.Time
	if timed {
		begin = time.Now()
	}
	var probed int
	if e.dist != nil {
		probed = s.distSpan(e.dist, e.rows.set.Sigs[i], e.cols, minJ)
	} else {
		probed = s.sparse(e.rows.flat, i, e.cols, minJ)
	}
	if timed {
		r.metrics.RowSeconds.ObserveSince(begin)
		r.metrics.Candidates.Observe(float64(probed))
	}
	return Candidates{Cols: s.cands, Dist: s.vals[:len(s.cands)]}
}

// rowInto fills dst[j] = Dist(row i, col j) for every column j ≥ minJ:
// the row's candidates spread over the disjoint baseline.
func (r *rower) rowInto(i int, minJ int32, dst []float64) {
	r.candidates(i, minJ)
	r.s.spread(r.e.cols, minJ, dst)
}

// Dist computes the single distance between row i and column j,
// bit-identical to d.Dist on the underlying signatures. Not safe for
// concurrent use (it shares the engine's one kernel and its match list —
// nothing is borrowed from the scratch pool).
func (e *Engine) Dist(i, j int) float64 {
	if e.dist != nil {
		return e.dist.Dist(e.rows.set.Sigs[i], e.cols.set.Sigs[j])
	}
	return e.kern.FlatDist(e.rows.flat, i, e.cols.flat, j)
}

// blockRows is the unit of work a worker takes from a job's counter: 16
// rows of Rows, or 16 rows of PairsWithin's triangle.
const blockRows = 16

// workerCount is how many goroutines a job of the given number of
// blocks runs on: the engine's workers (GOMAXPROCS when 0), at most one
// per block, at least one.
func (e *Engine) workerCount(blocks int) int {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, blocks))
}

// slabPool recycles the parallel Rows path's buffered-row slab.
var slabPool = sync.Pool{New: func() any { return new([]float64) }}

// rowRing is the parallel Rows job's hand-off between its workers and
// the consumer: which block each slot holds, and how far the consumer
// has got. Block b lives in slot b mod len(done).
type rowRing struct {
	mu     sync.Mutex
	cond   sync.Cond // broadcast when a block is written, passed, or the job stops
	done   []int     // per slot: 1 + the last block written into it
	passed int       // blocks the consumer has delivered
	stop   bool      // the consumer returned or panicked
}

// claim blocks until slot b mod ring may take block b — the consumer has
// passed block b − ring, the slot's previous tenant — and reports false
// if the job stopped first. Waiting on the consumer's position, not on a
// per-slot token, is what keeps a fast worker holding block b + ring off
// the slot a slow worker holding block b has yet to claim.
func (r *rowRing) claim(b int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.passed <= b-len(r.done) && !r.stop {
		r.cond.Wait()
	}
	return !r.stop
}

// testHookBeforeClaim, set only by tests, runs in a parallel Rows worker
// between taking block b from the counter and claiming its slot — where
// a preempted worker lingers.
var testHookBeforeClaim func(b int)

// written marks block b complete in its slot.
func (r *rowRing) written(b int) {
	r.mu.Lock()
	r.done[b%len(r.done)] = b + 1
	r.mu.Unlock()
	r.cond.Broadcast()
}

// await blocks until block b is complete in its slot.
func (r *rowRing) await(b int) {
	r.mu.Lock()
	for r.done[b%len(r.done)] != b+1 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// pass records that the consumer has delivered the first b blocks.
func (r *rowRing) pass(b int) {
	r.mu.Lock()
	r.passed = b
	r.mu.Unlock()
	r.cond.Broadcast()
}

// halt releases every worker waiting in claim, for good.
func (r *rowRing) halt() {
	r.mu.Lock()
	r.stop = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// runBlocks runs a job of the given number of 16-row blocks on workers
// (≥ 2) goroutines with a ring of 2·workers slots: each worker takes
// blocks in ascending order from a shared counter and, once it may claim
// block b's slot (b mod 2·workers), calls compute(r, b) with its rower;
// the calling goroutine calls deliver(b) for every block in ascending
// order as soon as it is complete. If deliver panics, the panic reaches
// the caller after every worker has stopped and released its scratch.
func (e *Engine) runBlocks(blocks, workers int, compute func(r *rower, b int), deliver func(b int)) {
	ring := &rowRing{done: make([]int, 2*workers)}
	ring.cond.L = &ring.mu
	var next atomic.Int64
	var wg sync.WaitGroup
	defer func() {
		// On return and on a panic in deliver alike: release the workers
		// waiting for a slot, hand out no more blocks, and let every
		// worker give its scratch back.
		next.Store(int64(blocks))
		ring.halt()
		wg.Wait()
	}()
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			r := e.newRower()
			defer r.release()
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				if testHookBeforeClaim != nil {
					testHookBeforeClaim(b)
				}
				if !ring.claim(b) {
					return
				}
				compute(&r, b)
				ring.written(b)
			}
		}()
	}
	for b := 0; b < blocks; b++ {
		ring.await(b)
		deliver(b)
		ring.pass(b + 1)
	}
}

// blockSpan is the range of positions [lo, hi) block b covers in a job
// of n rows.
func blockSpan(b, n int) (lo, hi int) { return b * blockRows, min((b+1)*blockRows, n) }

// ringAt is the index of position t's entry in a ring of slots slots of
// blockRows entries each: the (t mod blockRows)-th entry of its block's
// slot.
func ringAt(t, slots int) int { return t/blockRows%slots*blockRows + t%blockRows }

// Rows computes the distance rows for the given row indices and streams
// them to consume(t, row) where t is the position within idx — strictly
// in ascending t, from a single goroutine. Row buffers are reused:
// consumers that retain a row must copy it. With one worker the whole
// job runs on pooled scratch and allocates nothing. With more, workers
// write 16-row blocks into a ring of 2·workers buffers (runBlocks) while
// the calling goroutine delivers each block as soon as it is complete.
// Every cell is computed once, by one worker, from immutable inputs, so
// values and delivery order are identical to a sequential run. If
// consume panics, the panic reaches the caller after every worker has
// stopped and released its scratch.
func (e *Engine) Rows(idx []int, consume func(t int, row []float64)) {
	blocks := (len(idx) + blockRows - 1) / blockRows
	workers := e.workerCount(blocks)
	n := e.cols.Len()
	if workers == 1 {
		r := e.newRower()
		defer r.release()
		row := r.s.rowBuf(n)
		for t, i := range idx {
			r.rowInto(i, 0, row)
			consume(t, row)
		}
		return
	}
	slots := 2 * workers
	size := slots * blockRows * n
	slabPtr := slabPool.Get().(*[]float64)
	slab := *slabPtr
	if cap(slab) < size {
		slab = make([]float64, size)
	}
	slab = slab[:size]
	defer func() {
		*slabPtr = slab
		slabPool.Put(slabPtr)
	}()
	rowOf := func(t int) []float64 {
		at := ringAt(t, slots) * n
		return slab[at : at+n : at+n]
	}
	e.runBlocks(blocks, workers, func(r *rower, b int) {
		lo, hi := blockSpan(b, len(idx))
		for t := lo; t < hi; t++ {
			r.rowInto(idx[t], 0, rowOf(t))
		}
	}, func(b int) {
		lo, hi := blockSpan(b, len(idx))
		for t := lo; t < hi; t++ {
			consume(t, rowOf(t))
		}
	})
}

// Candidates is one computed row as a MapRows or MapTriangle reducer
// sees it: Dist[k] is the distance to column Cols[k], each column listed
// once, and every other column of the row's span — every column for
// MapRows, those above the diagonal for MapTriangle — is at exactly 1.
// Under a registered distance a non-empty row's candidates are the
// columns sharing a node with it, in no set order, and an empty row's
// are the empty columns, at 0, ascending; under a distance without a
// kernel every column of the span is one, ascending. Both slices belong
// to the worker and are reused once the reducer returns.
type Candidates struct {
	Cols []int32
	Dist []float64
}

// MapRows is Rows with the row reduced where it is computed: a worker
// calls reduce(t, row) with the candidates of the row of idx[t] right
// after computing them, and the calling goroutine is handed only the
// result, consume(t, v), strictly in ascending t. reduce runs on the
// job's worker goroutines, several at a time, so it must be safe for
// concurrent calls and must not panic; a reducer that depends only on
// its arguments makes the values consume sees — and so any fold of them
// in t order — independent of the worker count. The job allocates the
// ring of 2·workers·16 values, not anything per row.
func MapRows[T any](e *Engine, idx []int, reduce func(t int, row Candidates) T, consume func(t int, v T)) {
	mapRows(e, len(idx), func(t int) (int, int32) { return idx[t], 0 }, reduce, consume)
}

// MapTriangle is MapRows over every row i of a same-set engine, each
// computed against the columns above the diagonal only (j > i, the
// row's span): every unordered pair once. Every registered distance is
// exactly symmetric (internal/core/kernel.go), so that is the whole
// matrix off the diagonal; of a distance without a kernel nothing is
// assumed, symmetry included.
func MapTriangle[T any](e *Engine, reduce func(i int, row Candidates) T, consume func(i int, v T)) {
	if e.rows != e.cols {
		panic("distmat: MapTriangle on a cross-set engine")
	}
	mapRows(e, e.rows.Len(), func(i int) (int, int32) { return i, int32(i) + 1 }, reduce, consume)
}

// mapRows runs a reducing job of n positions: position t computes row i
// against the columns from minJ on, where i, minJ = rowAt(t).
func mapRows[T any](e *Engine, n int, rowAt func(t int) (i int, minJ int32), reduce func(t int, row Candidates) T, consume func(t int, v T)) {
	blocks := (n + blockRows - 1) / blockRows
	workers := e.workerCount(blocks)
	if workers == 1 {
		r := e.newRower()
		defer r.release()
		for t := range n {
			consume(t, reduce(t, r.candidates(rowAt(t))))
		}
		return
	}
	slots := 2 * workers
	vals := make([]T, slots*blockRows)
	e.runBlocks(blocks, workers, func(r *rower, b int) {
		lo, hi := blockSpan(b, n)
		for t := lo; t < hi; t++ {
			vals[ringAt(t, slots)] = reduce(t, r.candidates(rowAt(t)))
		}
	}, func(b int) {
		lo, hi := blockSpan(b, n)
		for t := lo; t < hi; t++ {
			consume(t, vals[ringAt(t, slots)])
		}
	})
}

// Pair is one unordered signature pair with its distance.
type Pair struct {
	I, J int // row indices, I < J
	Dist float64
}

// PairsWithin enumerates every unordered pair (I < J) of non-empty
// signatures with Dist ≤ maxDist, for a same-set engine. Row i is
// computed against the columns above the diagonal only. With
// maxDist < 1 only its candidates can qualify (disjoint pairs sit at
// exactly 1; of a distance without a kernel every column is a
// candidate). With maxDist ≥ 1 the candidates are spread over the
// baseline of ones and the row is scanned whole. The result is sorted
// by (I, J), independent of the worker count.
//
// Workers take 16-row chunks from a shared counter (row i scans n−i
// columns, so equal contiguous ranges would not be equal work), append
// each chunk's pairs to their pooled scratch sorted, and the chunks are
// concatenated in chunk order.
func (e *Engine) PairsWithin(maxDist float64) []Pair {
	n := e.rows.Len()
	chunks := (n + blockRows - 1) / blockRows
	rowers := make([]rower, e.workerCount(chunks))
	// spans[c] is chunk c's pairs: a tail of its worker's buffer as it
	// stood after the chunk, left intact by later appends (which write
	// past it or into a grown copy).
	spans := make([][]Pair, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(rowers))
	for w := range rowers {
		rowers[w] = e.newRower()
		go func(r *rower) {
			defer wg.Done()
			r.s.pairs = r.s.pairs[:0]
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo, hi := blockSpan(c, n)
				from := len(r.s.pairs)
				if maxDist < 1 {
					r.s.pairs = r.pairsThresholded(r.s.pairs, lo, hi, maxDist)
				} else {
					r.s.pairs = r.pairsDense(r.s.pairs, lo, hi, maxDist)
				}
				slices.SortFunc(r.s.pairs[from:], func(a, b Pair) int {
					return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
				})
				spans[c] = r.s.pairs[from:]
			}
		}(&rowers[w])
	}
	wg.Wait()
	total := 0
	for _, span := range spans {
		total += len(span)
	}
	all := slices.Grow([]Pair(nil), total) // nil when nothing qualifies
	for _, span := range spans {
		all = append(all, span...)
	}
	for w := range rowers {
		rowers[w].release()
	}
	return all
}

// pairsThresholded appends to out the candidates of rows [lo, hi) above
// the diagonal that are non-empty and lie within maxDist (< 1).
func (r *rower) pairsThresholded(out []Pair, lo, hi int, maxDist float64) []Pair {
	e := r.e
	for i := lo; i < hi; i++ {
		if e.rows.flat.IsEmpty(i) {
			continue
		}
		c := r.candidates(i, int32(i)+1)
		for k, j := range c.Cols {
			if dist := c.Dist[k]; dist <= maxDist && !e.cols.flat.IsEmpty(int(j)) {
				out = append(out, Pair{I: i, J: int(j), Dist: dist})
			}
		}
	}
	return out
}

// pairsDense is pairsThresholded at maxDist ≥ 1, where the columns a row
// shares no node with qualify too: each row is spread over its columns
// above the diagonal and scanned in column order.
func (r *rower) pairsDense(out []Pair, lo, hi int, maxDist float64) []Pair {
	e := r.e
	n := e.cols.Len()
	row := r.s.rowBuf(n)
	for i := lo; i < hi; i++ {
		if e.rows.flat.IsEmpty(i) {
			continue
		}
		r.rowInto(i, int32(i)+1, row)
		for j := i + 1; j < n; j++ {
			if row[j] <= maxDist && !e.cols.flat.IsEmpty(j) {
				out = append(out, Pair{I: i, J: j, Dist: row[j]})
			}
		}
	}
	return out
}

// Querier answers single-signature nearest-neighbour queries against
// SetViews — the store's search primitive. It holds pooled kernel and
// matcher scratch, so it is not safe for concurrent use; construction
// is cheap, and Release returns the scratch to the shared pool when the
// caller is done (using the querier after Release is a bug). A querier
// cycled over queries of similar shape allocates nothing per call.
type Querier struct {
	s       *scratch
	dist    core.Distance // set, with s nil, when the distance has no kernel
	metrics Metrics
}

// SetMetrics attaches instrumentation: every Neighbors call observes
// one row timing and one candidate count.
func (q *Querier) SetMetrics(m Metrics) { q.metrics = m }

// NewQuerier returns a querier for d. Like NewEngine it serves every
// Distance, a kernel-less one by a d.Dist scan of the view's signatures;
// the bool is always true and stays for bench/.
func NewQuerier(d core.Distance) (*Querier, bool) {
	kind, ok := core.KernelKindOf(d)
	if !ok {
		return &Querier{dist: d}, true
	}
	return &Querier{s: getScratch(kind, 0)}, true
}

// Release returns the querier's scratch to the shared pool.
func (q *Querier) Release() {
	if q.s != nil {
		q.s.release()
		q.s = nil
	}
}

// Neighbors visits every signature of view at distance ≤ maxDist from
// sig, with distances bit-identical to the naive d.Dist scan. With
// maxDist < 1 only inverted-index candidates are probed (plus the empty
// columns when sig itself is empty — those pairs are at distance 0) and
// the visit order is unspecified; with maxDist ≥ 1, or a distance
// without a kernel, every column is evaluated and the qualifying ones
// visited in ascending order. The callback must not re-enter the
// querier. Returns the number of candidates whose distance was
// evaluated.
func (q *Querier) Neighbors(view *SetView, sig core.Signature, maxDist float64, visit func(j int, dist float64)) int {
	if !q.metrics.instrumented() {
		return q.neighbors(view, sig, maxDist, visit)
	}
	begin := time.Now()
	cands := q.neighbors(view, sig, maxDist, visit)
	q.metrics.RowSeconds.ObserveSince(begin)
	q.metrics.Candidates.Observe(float64(cands))
	return cands
}

// neighbors is Neighbors' uninstrumented body; it reports the number
// of candidates whose distance was evaluated.
func (q *Querier) neighbors(view *SetView, sig core.Signature, maxDist float64, visit func(j int, dist float64)) int {
	n := view.Len()
	if q.dist != nil {
		for j, other := range view.set.Sigs {
			if dist := q.dist.Dist(sig, other); dist <= maxDist {
				visit(j, dist)
			}
		}
		return n
	}
	s := q.s
	s.grow(n)
	s.qsig[0] = sig
	s.qflat.Reset(s.qsig[:1])
	probed := s.sparse(&s.qflat, 0, view, 0)
	if maxDist < 1 {
		for k, j := range s.cands {
			if dist := s.vals[k]; dist <= maxDist {
				visit(int(j), dist)
			}
		}
		return probed
	}
	row := s.rowBuf(n)
	s.spread(view, 0, row)
	for j, dist := range row {
		if dist <= maxDist {
			visit(j, dist)
		}
	}
	return probed
}
