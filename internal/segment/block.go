package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// The v2 window block: one encoder, one decoder. The byte layout is in
// the package comment (segment.go).

var le = binary.LittleEndian

// appendBlock appends the encoding of set to dst and returns it with the
// block's label table as a reader will need it. local is scratch of at
// least u.Size() zeros, and is all zeros again on return.
func appendBlock(dst []byte, set *core.SignatureSet, u *graph.Universe, local []uint32) ([]byte, *labelTable, error) {
	start := len(dst)
	members := 0
	mark := func(v graph.NodeID) bool {
		if v < 0 || int(v) >= len(local) {
			return false
		}
		local[v] = 1
		return true
	}
	for i, v := range set.Sources {
		sig := set.Sigs[i]
		ok := mark(v) && len(sig.Nodes) == len(sig.Weights)
		for _, n := range sig.Nodes {
			ok = ok && mark(n)
		}
		if !ok {
			clear(local)
			return nil, nil, fmt.Errorf("signature of node %d does not fit the universe", v)
		}
		members += len(sig.Nodes)
	}
	var ids []graph.NodeID
	for id, m := range local {
		if m != 0 {
			ids = append(ids, graph.NodeID(id))
			local[id] = uint32(len(ids)) // index + 1
		}
	}

	dst = slices.Grow(dst, 24*len(ids)+8*len(set.Sources)+12*members+64)
	dst = appendString(dst, set.Scheme)
	dst = le.AppendUint64(dst, uint64(int64(set.Window)))
	dst = le.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, u.Label(id))
		dst = append(dst, byte(u.PartOf(id)))
	}
	labels := &labelTable{ids: ids, end: len(dst) - start}
	dst = le.AppendUint32(dst, uint32(len(set.Sources)))
	for i, v := range set.Sources {
		dst = le.AppendUint32(dst, local[v]-1)
		dst = le.AppendUint32(dst, uint32(len(set.Sigs[i].Nodes)))
	}
	for _, sig := range set.Sigs {
		for _, n := range sig.Nodes {
			dst = le.AppendUint32(dst, local[n]-1)
		}
	}
	for _, sig := range set.Sigs {
		for _, w := range sig.Weights {
			dst = le.AppendUint64(dst, math.Float64bits(w))
		}
	}
	for _, id := range ids {
		local[id] = 0
	}
	return dst, labels, nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// cursor walks a block front to back. A read past the end (or a
// malformed length) sets short and yields zeros from then on, so a
// section is read straight through and checked once.
type cursor struct {
	b     []byte // what remains
	short bool
}

func (c *cursor) take(n uint64) []byte {
	if c.short || n > uint64(len(c.b)) {
		c.short = true
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); !c.short {
		return le.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); !c.short {
		return le.Uint64(b)
	}
	return 0
}

// str reads a string's bytes. Only the minimal uvarint is accepted, so
// one value has one encoding and an accepted block re-encodes to itself.
func (c *cursor) str() []byte {
	n, w := binary.Uvarint(c.b)
	if c.short || w <= 0 || (w > 1 && c.b[w-1] == 0) {
		c.short = true
		return nil
	}
	c.b = c.b[w:]
	return c.take(n)
}

// labelTable is what the handle keeps of one block's label table, learnt
// when the block was written or opened: every later read resolves
// through it instead of through the label strings.
type labelTable struct {
	ids []graph.NodeID // block-local id → NodeID of the handle's universe
	// byNode lists the local ids in ascending NodeID order, for the
	// reverse lookup. Nil when ids itself ascends — always, unless the
	// universe met the labels in another order than the writer did.
	byNode []uint32
	end    int // byte offset in the block where the table ends
}

// local resolves a NodeID to the block-local id that stands for it.
func (t *labelTable) local(v graph.NodeID) (uint32, bool) {
	if t.byNode == nil {
		l, ok := slices.BinarySearch(t.ids, v)
		return uint32(l), ok
	}
	j, ok := slices.BinarySearchFunc(t.byNode, v, func(l uint32, v graph.NodeID) int {
		return cmp.Compare(t.ids[l], v)
	})
	if !ok {
		return 0, false
	}
	return t.byNode[j], true
}

// Block is one window block, verified and read where it lies: the
// sources, members and weights stay in the block's bytes, and a row
// becomes a core.Signature only when asked for. Every check a decoded
// set would have to pass has been made by the time a Block exists, so
// what it hands out needs no further validation. A Block is immutable
// and safe for concurrent use until it is released.
//
// The bytes are borrowed: a reader that is done with the block calls
// Release, and the next ReadBlock reads into them. Everything a Block
// hands out (Sig, SigInto, Set) is a copy and outlives it. A block that
// is never released is simply collected.
type Block struct {
	scheme string
	window int
	labels *labelTable
	// The block's three fixed-width sections: N × {source, k}, then the
	// M member ids, then the M weights.
	table, members, weights []byte
	starts                  []int // row i's members are [starts[i], starts[i+1])
	scratch                 *blockScratch
}

// blockScratch is the memory of one block read: the block's bytes,
// parseBlock's seen stamps and the row offsets the Block keeps.
type blockScratch struct {
	raw    []byte
	seen   []uint32
	starts []int
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// Release hands the block's memory to the next read. The block is
// emptied, so a use after Release panics instead of reading another
// window.
func (b *Block) Release() {
	sc := b.scratch
	*b = Block{}
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// parseBlock verifies one v2 block in place. Given a universe (Open)
// the label table is interned into it and the labelTable that yields
// hangs off the returned Block; given nil and that table (a read) the
// label strings are stepped over by the offset it holds — the block's
// CRC has just vouched that they are the bytes Open walked. Every count
// is checked against the bytes that remain before anything is sized
// from it. One pass over the rows then makes every check core.
// NewSignatureSet and Signature.Validate would make on the decoded set:
// ids within the label table, every label referenced, no source twice,
// weights positive, finite and descending, no member twice in a row.
// seen and the returned Block's starts are cut from sc.
func parseBlock(sc *blockScratch, raw []byte, u *graph.Universe, labels *labelTable) (*Block, error) {
	c := cursor{b: raw}
	scheme := string(c.str())
	window := int64(c.u64())
	nLabels := c.u32()
	if c.short {
		return nil, fmt.Errorf("block header truncated")
	}
	if int64(int(window)) != window {
		return nil, fmt.Errorf("window index %d overflows int", window)
	}
	// A label is at least its length byte and its part byte.
	if uint64(nLabels) > uint64(len(c.b))/2 {
		return nil, fmt.Errorf("%d labels cannot fit in %d bytes", nLabels, len(c.b))
	}
	if u != nil {
		var err error
		if labels, err = internLabels(&c, u, nLabels); err != nil {
			return nil, err
		}
		labels.end = len(raw) - len(c.b)
	} else {
		if uint64(len(labels.ids)) != uint64(nLabels) {
			return nil, fmt.Errorf("block lists %d labels, %d at open", nLabels, len(labels.ids))
		}
		if at := len(raw) - len(c.b); labels.end < at || labels.end > len(raw) {
			return nil, fmt.Errorf("label table truncated")
		}
		c.b = raw[labels.end:]
	}

	nSources := c.u32()
	table := c.take(8 * uint64(nSources))
	// Row i stamps its members i+2 below, and a stamp is a uint32.
	if c.short || nSources > math.MaxUint32-2 {
		return nil, fmt.Errorf("source table truncated")
	}
	// seen[l] is 0 until label l is referenced, 1 once it is a source and
	// i+2 once it is a member of row i: the one array answers "source
	// twice", "member twice in a row" and "label never referenced".
	sc.seen = slices.Grow(sc.seen[:0], int(nLabels))[:nLabels]
	seen := sc.seen
	clear(seen)
	var total uint64
	for i := 0; i < len(table); i += 8 {
		l := le.Uint32(table[i:])
		if l >= nLabels {
			return nil, fmt.Errorf("source %d is label %d of %d", i/8, l, nLabels)
		}
		if seen[l] != 0 {
			return nil, fmt.Errorf("source %d repeats label %d", i/8, l)
		}
		seen[l] = 1
		total += uint64(le.Uint32(table[i+4:]))
	}
	if rest := uint64(len(c.b)); rest%12 != 0 || total != rest/12 {
		return nil, fmt.Errorf("%d members declared, %d bytes of members follow", total, rest)
	}
	b := &Block{
		scheme:  scheme,
		window:  int(window),
		labels:  labels,
		table:   table,
		members: c.b[:4*total],
		weights: c.b[4*total:],
	}
	sc.starts = slices.Grow(sc.starts[:0], int(nSources)+1)[:nSources+1]
	b.starts = sc.starts
	at := 0
	for i := range int(nSources) {
		k, stamp := int(le.Uint32(table[8*i+4:])), uint32(i)+2
		b.starts[i] = at
		members, weights := b.members[4*at:4*(at+k)], b.weights[8*at:8*(at+k)]
		prev := math.Inf(1)
		for j := range k {
			m := le.Uint32(members[4*j:])
			if m >= nLabels {
				return nil, fmt.Errorf("source %d: member %d is label %d of %d", i, j, m, nLabels)
			}
			if seen[m] == stamp {
				return nil, fmt.Errorf("source %d repeats member %d", i, m)
			}
			seen[m] = stamp
			w := math.Float64frombits(le.Uint64(weights[8*j:]))
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("source %d: weight %d invalid (%g)", i, j, w)
			}
			if w > prev {
				return nil, fmt.Errorf("source %d: not in canonical order at entry %d", i, j)
			}
			prev = w
		}
		at += k
	}
	b.starts[nSources] = at
	if l := slices.Index(seen, 0); l >= 0 {
		return nil, fmt.Errorf("label %d is never referenced", l)
	}
	return b, nil
}

// internLabels walks the n entries of a block's label table, interning
// each into u.
func internLabels(c *cursor, u *graph.Universe, n uint32) (*labelTable, error) {
	t := &labelTable{ids: make([]graph.NodeID, n)}
	for j := range t.ids {
		label, part := c.str(), c.take(1)
		if c.short {
			return nil, fmt.Errorf("label table truncated at label %d", j)
		}
		if part[0] > byte(graph.Part2) {
			return nil, fmt.Errorf("label %d has unknown part %d", j, part[0])
		}
		id, err := u.Intern(string(label), graph.Part(part[0]))
		if err != nil {
			return nil, err
		}
		t.ids[j] = id
	}
	// Interned in the writer's order the table ascends; only a universe
	// that met the labels in another order needs the permutation.
	nth := func(j int) graph.NodeID { return t.ids[j] } // j-th smallest NodeID
	if !slices.IsSorted(t.ids) {
		t.byNode = make([]uint32, n)
		for l := range t.byNode {
			t.byNode[l] = uint32(l)
		}
		slices.SortFunc(t.byNode, func(a, b uint32) int { return cmp.Compare(t.ids[a], t.ids[b]) })
		nth = func(j int) graph.NodeID { return t.ids[t.byNode[j]] }
	}
	// A label listed twice would alias two local ids.
	for j := 1; j < len(t.ids); j++ {
		if nth(j) == nth(j-1) {
			return nil, fmt.Errorf("label %q listed twice", u.Label(nth(j)))
		}
	}
	return t, nil
}

// Scheme returns the name of the scheme that produced the window.
func (b *Block) Scheme() string { return b.scheme }

// Window returns the window's index.
func (b *Block) Window() int { return b.window }

// Len reports the number of rows (sources).
func (b *Block) Len() int { return len(b.starts) - 1 }

// Source returns the source node of row i.
func (b *Block) Source(i int) graph.NodeID {
	return b.labels.ids[le.Uint32(b.table[8*i:])]
}

// IsEmpty reports whether row i's signature has no members.
func (b *Block) IsEmpty(i int) bool { return b.starts[i] == b.starts[i+1] }

// Row returns the row whose source is v.
func (b *Block) Row(v graph.NodeID) (int, bool) {
	l, ok := b.labels.local(v)
	if !ok {
		return 0, false
	}
	for i := range b.Len() {
		if le.Uint32(b.table[8*i:]) == l {
			return i, true
		}
	}
	return 0, false
}

// Sig materialises row i's signature into arrays of its own.
func (b *Block) Sig(i int) core.Signature {
	var sig core.Signature
	b.SigInto(i, &sig)
	return sig
}

// SigInto materialises row i's signature into buf, reusing its arrays
// when they are long enough: for a caller that looks at one row at a
// time and keeps none.
func (b *Block) SigInto(i int, buf *core.Signature) {
	lo, hi := b.starts[i], b.starts[i+1]
	buf.Nodes = slices.Grow(buf.Nodes[:0], hi-lo)[:hi-lo]
	buf.Weights = slices.Grow(buf.Weights[:0], hi-lo)[:hi-lo]
	b.fill(lo, buf.Nodes, buf.Weights)
}

// fill resolves the members and weights from position lo on into nodes
// and weights, which are equally long.
func (b *Block) fill(lo int, nodes []graph.NodeID, weights []float64) {
	for p := range nodes {
		nodes[p] = b.labels.ids[le.Uint32(b.members[4*(lo+p):])]
		weights[p] = math.Float64frombits(le.Uint64(b.weights[8*(lo+p):]))
	}
}

// Set materialises the whole window: a signature set whose signatures
// all slice two backing arrays.
func (b *Block) Set() (*core.SignatureSet, error) {
	n := b.Len()
	nodes := make([]graph.NodeID, b.starts[n])
	weights := make([]float64, b.starts[n])
	b.fill(0, nodes, weights)
	sources := make([]graph.NodeID, n)
	sigs := make([]core.Signature, n)
	for i := range sources {
		lo, hi := b.starts[i], b.starts[i+1]
		sources[i] = b.Source(i)
		sigs[i] = core.Signature{Nodes: nodes[lo:hi:hi], Weights: weights[lo:hi:hi]}
	}
	return core.NewSignatureSet(b.scheme, b.window, sources, sigs)
}

// Candidates appends to rows, ascending, the rows whose signature shares
// at least one node with query, and returns it. Two valid signatures
// that share no node lie at distance exactly 1 under every registered
// distance (core/kernel.go), so a search bounded below 1 need look at no
// other row.
func (b *Block) Candidates(query []graph.NodeID, rows []int) []int {
	var wanted []uint64 // bitmap over the block-local ids
	for _, v := range query {
		if l, ok := b.labels.local(v); ok {
			if wanted == nil {
				wanted = make([]uint64, (len(b.labels.ids)+63)/64)
			}
			wanted[l/64] |= 1 << (l % 64)
		}
	}
	if wanted == nil {
		return rows
	}
	for i := range b.Len() {
		for p := b.starts[i]; p < b.starts[i+1]; p++ {
			if l := le.Uint32(b.members[4*p:]); wanted[l/64]&(1<<(l%64)) != 0 {
				rows = append(rows, i)
				break
			}
		}
	}
	return rows
}
