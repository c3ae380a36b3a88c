package segment

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// The v2 window block: one encoder, one decoder. The byte layout is in
// the package comment (segment.go).

var le = binary.LittleEndian

// appendBlock appends the encoding of set to dst and returns it with the
// block's local-id → NodeID table. local is scratch of at least
// u.Size() zeros, and is all zeros again on return.
func appendBlock(dst []byte, set *core.SignatureSet, u *graph.Universe, local []uint32) ([]byte, []graph.NodeID, error) {
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
	return dst, ids, nil
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

// decodeBlock parses one v2 block into a validated signature set whose
// signatures all slice two backing arrays. Given a universe (Open) the
// label table is interned into it and the local-id → NodeID table that
// yields is returned; given nil and that table (ReadWindow) the label
// strings are skipped. Every count is checked against the bytes that
// remain before anything is sized from it.
func decodeBlock(raw []byte, u *graph.Universe, ids []graph.NodeID) (*core.SignatureSet, []graph.NodeID, error) {
	c := cursor{b: raw}
	scheme := string(c.str())
	window := int64(c.u64())
	nLabels := c.u32()
	if c.short {
		return nil, nil, fmt.Errorf("block header truncated")
	}
	if int64(int(window)) != window {
		return nil, nil, fmt.Errorf("window index %d overflows int", window)
	}
	// A label is at least its length byte and its part byte.
	if uint64(nLabels) > uint64(len(c.b))/2 {
		return nil, nil, fmt.Errorf("%d labels cannot fit in %d bytes", nLabels, len(c.b))
	}
	intern := u != nil
	if intern {
		ids = make([]graph.NodeID, nLabels)
	} else if uint64(len(ids)) != uint64(nLabels) {
		return nil, nil, fmt.Errorf("block lists %d labels, %d at open", nLabels, len(ids))
	}
	for j := range ids {
		label, part := c.str(), c.take(1)
		if c.short {
			return nil, nil, fmt.Errorf("label table truncated at label %d", j)
		}
		if !intern {
			continue
		}
		if part[0] > byte(graph.Part2) {
			return nil, nil, fmt.Errorf("label %d has unknown part %d", j, part[0])
		}
		id, err := u.Intern(string(label), graph.Part(part[0]))
		if err != nil {
			return nil, nil, err
		}
		ids[j] = id
	}
	if intern {
		// A label listed twice would alias two local ids. Interned in the
		// writer's order the table ascends; only a universe that met the
		// labels in another order needs the sort.
		chk := ids
		if !slices.IsSorted(chk) {
			chk = slices.Clone(ids)
			slices.Sort(chk)
		}
		for j := 1; j < len(chk); j++ {
			if chk[j] == chk[j-1] {
				return nil, nil, fmt.Errorf("label %q listed twice", u.Label(chk[j]))
			}
		}
	}

	nSources := c.u32()
	table := c.take(8 * uint64(nSources))
	if c.short {
		return nil, nil, fmt.Errorf("source table truncated")
	}
	var members uint64
	for i := 0; i < len(table); i += 8 {
		members += uint64(le.Uint32(table[i+4:]))
	}
	if rest := uint64(len(c.b)); rest%12 != 0 || members != rest/12 {
		return nil, nil, fmt.Errorf("%d members declared, %d bytes of members follow", members, rest)
	}
	memberIDs, memberWeights := c.b[:4*members], c.b[4*members:]

	used := make([]bool, nLabels)
	nodes := make([]graph.NodeID, members)
	weights := make([]float64, members)
	for i := range nodes {
		l := le.Uint32(memberIDs[4*i:])
		if l >= nLabels {
			return nil, nil, fmt.Errorf("member %d is label %d of %d", i, l, nLabels)
		}
		used[l] = true
		nodes[i] = ids[l]
		weights[i] = math.Float64frombits(le.Uint64(memberWeights[8*i:]))
	}
	sources := make([]graph.NodeID, nSources)
	sigs := make([]core.Signature, nSources)
	at := 0
	for i := range sources {
		l, k := le.Uint32(table[8*i:]), int(le.Uint32(table[8*i+4:]))
		if l >= nLabels {
			return nil, nil, fmt.Errorf("source %d is label %d of %d", i, l, nLabels)
		}
		used[l] = true
		sources[i] = ids[l]
		sigs[i] = core.Signature{Nodes: nodes[at : at+k : at+k], Weights: weights[at : at+k : at+k]}
		at += k
	}
	if l := slices.Index(used, false); l >= 0 {
		return nil, nil, fmt.Errorf("label %d is never referenced", l)
	}
	set, err := core.NewSignatureSet(scheme, int(window), sources, sigs)
	if err != nil {
		return nil, nil, err
	}
	return set, ids, nil
}
