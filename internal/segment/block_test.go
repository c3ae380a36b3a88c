package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// spec is a v2 block spelled out field by field: the layout written
// down a second time, apart from appendBlock, so the tests can pin the
// bytes and bend any one field of them.
type spec struct {
	scheme  string
	window  int64
	labels  []string
	parts   []byte
	sources [][2]uint32 // label, member count
	members []uint32
	weights []float64
}

// offsets locate the sections of an encoded spec.
type offsets struct {
	window, labelCount, labels, sourceCount, sources, members, weights, end int
}

func (s spec) encode() ([]byte, offsets) {
	var at offsets
	b := binary.AppendUvarint(nil, uint64(len(s.scheme)))
	b = append(b, s.scheme...)
	at.window = len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.window))
	at.labelCount = len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.labels)))
	at.labels = len(b)
	for i, l := range s.labels {
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
		b = append(b, s.parts[i])
	}
	at.sourceCount = len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.sources)))
	at.sources = len(b)
	for _, src := range s.sources {
		b = binary.LittleEndian.AppendUint32(b, src[0])
		b = binary.LittleEndian.AppendUint32(b, src[1])
	}
	at.members = len(b)
	for _, m := range s.members {
		b = binary.LittleEndian.AppendUint32(b, m)
	}
	at.weights = len(b)
	for _, w := range s.weights {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	at.end = len(b)
	return b, at
}

// baseSpec is a small well-formed block over all three parts with one
// empty signature: a → {x:0.75, y:0.25}, b → {}, c → {a:2}.
func baseSpec() spec {
	return spec{
		scheme:  "tt",
		window:  7,
		labels:  []string{"a", "b", "c", "x", "y"},
		parts:   []byte{1, 1, 0, 2, 2},
		sources: [][2]uint32{{0, 2}, {1, 0}, {2, 1}},
		members: []uint32{3, 4, 0},
		weights: []float64{0.75, 0.25, 2},
	}
}

// TestBlockLayout pins the encoder to the documented layout: the block
// appendBlock writes for baseSpec's set is baseSpec's bytes.
func TestBlockLayout(t *testing.T) {
	s := baseSpec()
	u := graph.NewUniverse()
	id := make([]graph.NodeID, len(s.labels))
	for i, l := range s.labels {
		id[i] = u.MustIntern(l, graph.Part(s.parts[i]))
	}
	set, err := core.NewSignatureSet(s.scheme, int(s.window),
		[]graph.NodeID{id[0], id[1], id[2]},
		[]core.Signature{
			{Nodes: []graph.NodeID{id[3], id[4]}, Weights: []float64{0.75, 0.25}},
			{},
			{Nodes: []graph.NodeID{id[0]}, Weights: []float64{2}},
		})
	if err != nil {
		t.Fatal(err)
	}
	local := make([]uint32, u.Size())
	got, labels, err := appendBlock(nil, set, u, local)
	if err != nil {
		t.Fatal(err)
	}
	want, at := s.encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("block bytes\n got %x\nwant %x", got, want)
	}
	if !slices.Equal(labels.ids, id) || labels.byNode != nil || labels.end != at.sourceCount {
		t.Fatalf("label table %+v, want ids %v ending at %d", labels, id, at.sourceCount)
	}
	for _, l := range local {
		if l != 0 {
			t.Fatal("appendBlock left marks in its scratch")
		}
	}
	// A node outside the universe is an error, not a panic, and leaves
	// the scratch clean for the next window.
	set.Sigs[2].Nodes[0] = graph.NodeID(u.Size())
	if _, _, err := appendBlock(nil, set, u, local); err == nil {
		t.Fatal("appendBlock accepted a node outside the universe")
	}
	for _, l := range local {
		if l != 0 {
			t.Fatal("failed appendBlock left marks in its scratch")
		}
	}
}

// nastyLabels are label bytes a line-oriented codec has to escape; the
// binary block carries them as they are.
var nastyLabels = []string{
	"", " ", `quo"te`, `back\slash`, "new\nline", "nul\x00byte", "\xff\xfe not utf8",
	"tab\tand space", "end ", "toc 1", `label "x" 3`,
}

// randomSets builds n windows over a pool of labels (the nasty ones
// plus plain ones, spread over all three parts) interned into u. Window
// indices ascend from a negative start to past 2^40; signature lengths
// run from 0 to past the kernels' insertion-sort cutoff (48).
func randomSets(t *testing.T, rng *rand.Rand, u *graph.Universe, n int) []*core.SignatureSet {
	t.Helper()
	var pool []graph.NodeID
	for i, l := range nastyLabels {
		pool = append(pool, u.MustIntern(l, graph.Part(i%3)))
	}
	for i := 0; i < 90; i++ {
		pool = append(pool, u.MustIntern(fmt.Sprintf("n-%d", i), graph.Part(rng.Intn(3))))
	}
	ks := []int{0, 0, 1, 2, 5, 10, 48, 49, 64}
	schemes := []string{"tt", "rwr3@0.1", "odd \"scheme\"\n"}
	window := -3 - rng.Intn(5)
	var sets []*core.SignatureSet
	for w := 0; w < n; w++ {
		var sources []graph.NodeID
		var sigs []core.Signature
		for _, p := range rng.Perm(len(pool))[:rng.Intn(14)] {
			k := ks[rng.Intn(len(ks))]
			sig := core.Signature{Nodes: make([]graph.NodeID, k), Weights: make([]float64, k)}
			for j, m := range rng.Perm(len(pool))[:k] {
				sig.Nodes[j] = pool[m]
				sig.Weights[j] = math.Abs(rng.NormFloat64())*math.Pow(10, float64(rng.Intn(41)-20)) + math.SmallestNonzeroFloat64
				if j > 0 && rng.Intn(4) == 0 {
					sig.Weights[j] = sig.Weights[j-1] // ties
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(sig.Weights)))
			sources = append(sources, pool[p])
			sigs = append(sigs, sig)
		}
		set, err := core.NewSignatureSet(schemes[rng.Intn(len(schemes))], window, sources, sigs)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
		window += 1 + rng.Intn(3)
		if w == n/2 {
			window += 1 << 40
		}
	}
	return sets
}

// TestSegmentRoundTripProperty: decode(encode(set)) equals set source
// for source, member for member and weight bit for bit — read back
// through the handle Write returns, through a fresh universe, and
// through a universe that met the labels in the opposite order with
// strangers between them — and the block's lazy accessors agree with the
// decoded set in each.
func TestSegmentRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := graph.NewUniverse()
		sets := randomSets(t, rng, u, 1+rng.Intn(5))
		written, err := Write(t.TempDir(), sets, u)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reversed := graph.NewUniverse()
		for id := u.Size() - 1; id >= 0; id-- {
			reversed.MustIntern(fmt.Sprintf("stranger-%d", id), graph.PartNone)
			reversed.MustIntern(u.Label(graph.NodeID(id)), u.PartOf(graph.NodeID(id)))
		}
		for name, ru := range map[string]*graph.Universe{"writer": u, "fresh": graph.NewUniverse(), "reversed": reversed} {
			seg := written
			if ru != u {
				if seg, err = Open(written.Path(), ru); err != nil {
					t.Fatalf("seed %d, %s universe: %v", seed, name, err)
				}
			}
			for _, want := range sets {
				got, err := seg.ReadWindow(want.Window)
				if err != nil {
					t.Fatalf("seed %d, %s universe, window %d: %v", seed, name, want.Window, err)
				}
				assertSetsEqual(t, want, got, u, ru)
				// The reversed universe resolves through the sorted permutation.
				b, err := seg.ReadBlock(want.Window)
				if err != nil {
					t.Fatalf("seed %d, %s universe, window %d: %v", seed, name, want.Window, err)
				}
				assertBlockMatchesSet(t, b, got, ru)
			}
		}
	}
}

// frameBlock frames raw as the only window block of an otherwise
// well-formed segment file — every checksum right — so that what Open
// makes of it is the block decoder's verdict alone.
func frameBlock(head string, window int, raw []byte) []byte {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, head)
	off := buf.Len()
	buf.Write(raw)
	tocOff := buf.Len()
	fmt.Fprintf(&buf, "toc 1\nwindow %d %q %d %d %08x\n", window, "tt", off, len(raw), crc32.ChecksumIEEE(raw))
	fmt.Fprintf(&buf, "end %d %08x\n", tocOff, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// blockFile is frameBlock on disk.
func blockFile(t *testing.T, head string, window int, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), Name(window, window))
	if err := os.WriteFile(path, frameBlock(head, window, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openOnly names the corruptions that sit in the label strings, which
// only Open walks; a read resolving through Open's table steps over them.
var openOnly = map[string]bool{
	"label listed twice": true, "unknown part": true, "part conflict inside the block": true,
}

// corruptBlocks is the corruption table: every way baseSpec's block can
// be cut short, over-promise, point outside itself or break an invariant
// of the sets it carries. Shared with the fuzz targets as seeds.
func corruptBlocks() map[string][]byte {
	good, at := baseSpec().encode()
	out := map[string][]byte{}
	for cut := 0; cut < len(good); cut++ { // covers every section boundary
		out[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	patch := func(name string, off int, v uint32) {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[off:], v)
		out[name] = b
	}
	patch("label count + 1", at.labelCount, 6)
	patch("label count huge", at.labelCount, math.MaxUint32)
	patch("source count + 1", at.sourceCount, 4)
	patch("source count huge", at.sourceCount, math.MaxUint32)
	patch("member count + 1", at.sources+4, 3)
	patch("member count huge", at.sources+4, math.MaxUint32)
	patch("member counts shifted", at.sources+4, 1) // sum short by one
	patch("source id = label count", at.sources, 5)
	patch("member id = label count", at.members, 5)
	patch("member id huge", at.members+4, math.MaxUint32)
	out["one trailing byte"] = append(bytes.Clone(good), 0)
	out["twelve trailing bytes"] = append(bytes.Clone(good), make([]byte, 12)...)
	out["label length past the end"] = append(append(bytes.Clone(good[:at.labels]), 0xff, 0xff, 0x03), good[at.labels+1:]...)
	out["non-minimal length"] = append([]byte{0x82, 0x00}, good[1:]...)

	bend := func(name string, f func(*spec)) {
		s := baseSpec()
		f(&s)
		out[name], _ = s.encode()
	}
	bend("label listed twice", func(s *spec) { s.labels[1] = "a" })
	bend("label never referenced", func(s *spec) { s.labels = append(s.labels, "z"); s.parts = append(s.parts, 0) })
	bend("unknown part", func(s *spec) { s.parts[2] = 3 })
	bend("part conflict inside the block", func(s *spec) { s.labels[4] = "x"; s.parts[4] = 1 })
	bend("duplicate source", func(s *spec) { s.sources[1][0] = 0 })
	bend("repeated member", func(s *spec) { s.members[1] = 3 })
	bend("zero weight", func(s *spec) { s.weights[1] = 0 })
	bend("negative weight", func(s *spec) { s.weights[2] = -1 })
	bend("NaN weight", func(s *spec) { s.weights[0] = math.NaN() })
	bend("infinite weight", func(s *spec) { s.weights[0] = math.Inf(1) })
	bend("ascending weights", func(s *spec) { s.weights[0], s.weights[1] = 0.25, 0.75 })
	return out
}

// TestBlockCorruptionTable: the in-place parser alone — no signature is
// ever decoded here — refuses every row of the table.
func TestBlockCorruptionTable(t *testing.T) {
	// ownLabels walks raw's header and label table as Open would.
	ownLabels := func(raw []byte) *labelTable {
		c := cursor{b: raw}
		c.str()
		c.u64()
		n := c.u32()
		if c.short || uint64(n) > uint64(len(c.b))/2 {
			return nil
		}
		labels, err := internLabels(&c, graph.NewUniverse(), n)
		if err != nil {
			return nil
		}
		labels.end = len(raw) - len(c.b)
		return labels
	}
	good, _ := baseSpec().encode()
	b, err := parseBlock(new(blockScratch), good, graph.NewUniverse(), nil)
	if err != nil || b.Len() != 3 {
		t.Fatalf("the uncorrupted block: %v", err)
	}
	if _, err := Open(blockFile(t, header, 7, good), graph.NewUniverse()); err != nil {
		t.Fatalf("the uncorrupted block, framed: %v", err)
	}
	for name, raw := range corruptBlocks() {
		// Whatever a count claims, verifying allocates in proportion to the
		// bytes actually there.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseBlock(new(blockScratch), raw, graph.NewUniverse(), nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: verified", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: verifying %d bytes allocated %d", name, len(raw), grew)
		}
		// The runtime path, resolving through the table Open built, holds
		// the same line on everything but the label strings it skips.
		if _, err := parseBlock(new(blockScratch), raw, nil, b.labels); err == nil && !openOnly[name] {
			t.Errorf("%s: verified against the open-time table", name)
		}
		// Nor does it lean on that table being another block's: against
		// the table of its own label strings, where those can be walked,
		// what follows them is refused all the same.
		if own := ownLabels(raw); own != nil && !openOnly[name] {
			if _, err := parseBlock(new(blockScratch), raw, nil, own); err == nil {
				t.Errorf("%s: verified against its own label table", name)
			}
		}
		// Framed with honest checksums the file is corrupt, not unreadable.
		if _, err := Open(blockFile(t, header, 7, raw), graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
	// A block that is fine but for the window it claims.
	if _, err := Open(blockFile(t, header, 8, good), graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("window mismatch: Open = %v, want ErrCorrupt", err)
	}
	// A part that contradicts what the universe already knows.
	u := graph.NewUniverse()
	u.MustIntern("x", graph.Part1)
	if _, err := Open(blockFile(t, header, 7, good), u); !errors.Is(err, ErrCorrupt) {
		t.Errorf("part conflict with the universe: Open = %v, want ErrCorrupt", err)
	}
}

// TestSegmentFlippedBytes flips single bytes through every section of
// every block of a committed file: an attached handle reports the
// rotten block as ErrCorrupt on its next read (and still serves the
// others), and a fresh Open refuses the file.
func TestSegmentFlippedBytes(t *testing.T) {
	u := graph.NewUniverse()
	sets := threeWindows(t, u)
	seg, err := Write(t.TempDir(), sets, u)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(seg.Path())
	if err != nil {
		t.Fatal(err)
	}
	for i, info := range seg.toc {
		for off := info.off; off < info.off+info.size; off += 3 {
			rotten := bytes.Clone(clean)
			rotten[off] ^= 0x40
			if err := os.WriteFile(seg.Path(), rotten, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := seg.ReadWindow(info.window); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("window %d byte %d flipped: ReadWindow = %v, want ErrCorrupt", info.window, off, err)
			}
			other := seg.toc[(i+1)%len(seg.toc)].window
			if _, err := seg.ReadWindow(other); err != nil {
				t.Fatalf("window %d byte %d flipped: intact window %d unreadable: %v", info.window, off, other, err)
			}
			if _, err := Open(seg.Path(), graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("window %d byte %d flipped: Open = %v, want ErrCorrupt", info.window, off, err)
			}
		}
	}
}
