package segment

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// fixtureBlocks carves the window blocks out of the v2 fixture.
func fixtureBlocks(tb testing.TB) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile(fixtureV2)
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := Open(fixtureV2, graph.NewUniverse())
	if err != nil {
		tb.Fatal(err)
	}
	var blocks [][]byte
	for _, info := range seg.toc {
		blocks = append(blocks, raw[info.off:info.off+info.size])
	}
	return blocks
}

// FuzzDecodeBlock feeds arbitrary bytes to the block parser. It must
// never panic, and the format is canonical: whatever it accepts
// re-encodes to the same bytes, and verifies to the same set through the
// label table as it did through the label strings. The lazy accessors
// then answer what the eager Set does: every row, the row lookup, and
// the candidates of queries drawn from the block's own rows.
func FuzzDecodeBlock(f *testing.F) {
	for _, b := range fixtureBlocks(f) {
		f.Add(b)
	}
	good, _ := baseSpec().encode()
	f.Add(good)
	for _, b := range corruptBlocks() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		u := graph.NewUniverse()
		opened, err := parseBlock(new(blockScratch), raw, u, nil)
		if err != nil {
			return
		}
		set, err := opened.Set()
		if err != nil {
			t.Fatalf("verified block does not decode: %v", err)
		}
		again, _, err := appendBlock(nil, set, u, make([]uint32, u.Size()))
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted block re-encodes differently\n  in %x\n out %x", raw, again)
		}
		b, err := parseBlock(new(blockScratch), raw, nil, opened.labels)
		if err != nil {
			t.Fatalf("block accepted at open fails at read: %v", err)
		}
		byTable, err := b.Set()
		if err != nil {
			t.Fatalf("block accepted at open fails to decode at read: %v", err)
		}
		assertSetsEqual(t, set, byTable, u, u)
		assertBlockMatchesSet(t, b, set, u)
	})
}

// assertBlockMatchesSet holds a Block's lazy accessors to the set it
// decodes to: rows, sources, the lookup by source, and Candidates for
// each row's own signature (plus a node of the universe the block may
// not know) against a scan of the set.
func assertBlockMatchesSet(t *testing.T, b *Block, set *core.SignatureSet, u *graph.Universe) {
	t.Helper()
	if b.Len() != set.Len() || b.Window() != set.Window || b.Scheme() != set.Scheme {
		t.Fatalf("block is %d rows of (%d, %q), set %d of (%d, %q)",
			b.Len(), b.Window(), b.Scheme(), set.Len(), set.Window, set.Scheme)
	}
	var buf core.Signature
	for i, v := range set.Sources {
		if b.Source(i) != v || b.IsEmpty(i) != set.Sigs[i].IsEmpty() {
			t.Fatalf("row %d: source %d empty %v, set has %d empty %v", i, b.Source(i), b.IsEmpty(i), v, set.Sigs[i].IsEmpty())
		}
		if row, ok := b.Row(v); !ok || row != i {
			t.Fatalf("Row(%d) = %d, %v, want %d", v, row, ok, i)
		}
		b.SigInto(i, &buf)
		if fresh := b.Sig(i); !slices.Equal(fresh.Nodes, set.Sigs[i].Nodes) || !sameBits(fresh.Weights, set.Sigs[i].Weights) ||
			!slices.Equal(buf.Nodes, fresh.Nodes) || !sameBits(buf.Weights, fresh.Weights) {
			t.Fatalf("row %d: Sig %v, SigInto %v, set has %v", i, fresh, buf, set.Sigs[i])
		}
	}
	if _, ok := b.Row(graph.NodeID(u.Size())); ok {
		t.Fatal("Row found a node the universe does not hold")
	}
	for i := range set.Sigs {
		query := append([]graph.NodeID{graph.NodeID(u.Size() + i)}, set.Sigs[i].Nodes...)
		var want []int
		for r, sig := range set.Sigs {
			if slices.ContainsFunc(query, sig.Contains) {
				want = append(want, r)
			}
		}
		if got := b.Candidates(query, nil); !slices.Equal(got, want) {
			t.Fatalf("Candidates(row %d's members) = %v, want %v", i, got, want)
		}
	}
}

// sameBits compares weights bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// reseal recomputes the whole-file checksum of the `end` line, keeping
// its TOC offset, so mutations reach the TOC parser and the block
// bounds instead of all dying at the first check.
func reseal(file []byte) []byte {
	if len(file) == 0 || file[len(file)-1] != '\n' {
		return file
	}
	footStart := bytes.LastIndexByte(file[:len(file)-1], '\n') + 1
	var tocOff int64
	var crc uint32
	if _, err := fmt.Sscanf(string(file[footStart:]), "end %d %x", &tocOff, &crc); err != nil {
		return file
	}
	return fmt.Appendf(bytes.Clone(file[:footStart]), "end %d %08x\n", tocOff, crc32.ChecksumIEEE(file[:footStart]))
}

// FuzzSegmentOpen feeds arbitrary files (as given, and resealed) to
// Open's parser. A file is either refused as ErrCorrupt or (the v1
// fixture and what grows from it) ErrOldFormat — never a panic — or
// every window its TOC lists reads back from disk.
func FuzzSegmentOpen(f *testing.F) {
	for _, path := range []string{fixtureV1, fixtureV2} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, b := range corruptBlocks() {
		f.Add(frameBlock(header, 7, b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, reseal(data)} {
			if _, err := parse("fuzz.seg", file, graph.NewUniverse()); err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOldFormat) {
					t.Fatalf("parse = %v, want ErrCorrupt or ErrOldFormat", err)
				}
				continue
			}
			path := filepath.Join(t.TempDir(), "fuzz.seg")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := Open(path, graph.NewUniverse())
			if err != nil {
				t.Fatalf("parsed file does not open: %v", err)
			}
			for _, w := range seg.Windows() {
				if set, err := seg.ReadWindow(w); err != nil || set.Window != w {
					t.Fatalf("opened file does not serve window %d: %v", w, err)
				}
			}
		}
	})
}
