package segment

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

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

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder. It must
// never panic, and the format is canonical: whatever it accepts
// re-encodes to the same bytes, and decodes to the same set through the
// id table as it did through the label strings.
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
		set, ids, err := decodeBlock(raw, u, nil)
		if err != nil {
			return
		}
		again, _, err := appendBlock(nil, set, u, make([]uint32, u.Size()))
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted block re-encodes differently\n  in %x\n out %x", raw, again)
		}
		byTable, _, err := decodeBlock(raw, nil, ids)
		if err != nil {
			t.Fatalf("block accepted at open fails at read: %v", err)
		}
		assertSetsEqual(t, set, byTable, u, u)
	})
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
// Open's parser. A file is either refused as ErrCorrupt — never a
// panic — or every window its TOC lists reads back from disk.
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
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("parse = %v, want ErrCorrupt", err)
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
