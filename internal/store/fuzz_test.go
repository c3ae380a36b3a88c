package store

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

// resealManifest recomputes the trailing `crc` line so mutations reach
// the line parser instead of all dying at the checksum.
func resealManifest(raw []byte) []byte {
	i := bytes.LastIndex(raw, []byte("\ncrc "))
	if i < 0 {
		return raw
	}
	return fmt.Appendf(bytes.Clone(raw[:i+1]), "crc %08x\n", crc32.ChecksumIEEE(raw[:i+1]))
}

// FuzzLoadManifest feeds arbitrary bytes (as given, and resealed) to
// the manifest parser (label files: FuzzLoadLabels; window files go
// through segment.Open, fuzzed there). A manifest
// is refused as ErrCorrupt or ErrOldFormat, never with a panic, or it
// is byte for byte what Save renders from the universe and window list
// it loaded.
func FuzzLoadManifest(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "snap")
	s := lineageStore(f, 0, nil)
	if err := s.Save(dir); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot-v2", manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	older, err := os.ReadFile(filepath.Join("testdata", "snapshot-v3", manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(older)
	f.Add([]byte(manifestHeader + "\nlabels 0 0000002a\nlabels 0 0000002a\nwindow 3 0000002a\nwindow 3 0000002a\ncrc 0\n"))
	f.Add([]byte(manifestHeader + "\nlabels -7 2A\nnode \"a\" V1\nwindow -1 FF\nset x 1 2\n\ncrc 00000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, resealManifest(data)} {
			labels, windows, err := loadManifest(raw)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOldFormat) {
					t.Fatalf("loadManifest = %v, want ErrCorrupt or ErrOldFormat", err)
				}
				continue
			}
			if again := renderManifest(labels, windows); !bytes.Equal(again, raw) {
				t.Fatalf("accepted manifest is not what Save writes:\n%q\n%q", raw, again)
			}
		}
	})
}

// FuzzLoadLabels does the same for the other parser of snapshot bytes
// this package owns: a label file's bytes are refused as ErrCorrupt,
// never with a panic, or they are byte for byte what encodeLabels
// writes for the labels they interned — which come out numbered from
// the file's first NodeID on, after whatever the universe held.
func FuzzLoadLabels(f *testing.F) {
	s := lineageStore(f, 0, nil)
	f.Add(encodeLabels(s.Universe(), 0, s.Universe().Size()), uint8(0))
	f.Add(encodeLabels(s.Universe(), 2, 5), uint8(2))
	f.Add([]byte{1, 'a', 0, 1, 'a', 0}, uint8(0))             // a repeat
	f.Add([]byte{0x81, 0x00, 'a', 1}, uint8(1))               // a length not in its shortest form
	f.Add([]byte{2, 'a', 'b', 3, 0xff, 0xff, 0xff}, uint8(0)) // a part that does not exist, a length past the end
	f.Add([]byte{0, 2}, uint8(0))                             // the empty label
	f.Fuzz(func(t *testing.T, raw []byte, held uint8) {
		u := graph.NewUniverse()
		first := int(held % 8)
		for i := 0; i < first; i++ {
			u.MustIntern(fmt.Sprintf("held-%d", i), graph.PartNone)
		}
		count, err := loadLabels(raw, u, first)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("loadLabels = %v, want ErrCorrupt", err)
			}
			return
		}
		if u.Size() != first+count {
			t.Fatalf("universe holds %d labels after %d were loaded over %d", u.Size(), count, first)
		}
		if again := encodeLabels(u, first, first+count); !bytes.Equal(again, raw) {
			t.Fatalf("accepted label file is not what Save writes:\n%q\n%q", raw, again)
		}
	})
}
