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
// the manifest parser — the one parser of snapshot bytes this package
// owns; window files go through segment.Open, fuzzed there. A manifest
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
	f.Add([]byte(manifestHeader + "\nnode \"a\" V1\nnode \"a\" V1\nwindow 3 0000002a\nwindow 3 0000002a\ncrc 0\n"))
	f.Add([]byte(manifestHeader + "\nnode \"sp ace\\n\" V3\nwindow -1 FF\nset x 1 2\n\ncrc 00000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, resealManifest(data)} {
			u := graph.NewUniverse()
			windows, err := loadManifest(raw, u)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOldFormat) {
					t.Fatalf("loadManifest = %v, want ErrCorrupt or ErrOldFormat", err)
				}
				continue
			}
			node := func(i int) (string, graph.Part) { return u.Label(graph.NodeID(i)), u.PartOf(graph.NodeID(i)) }
			if again := renderManifest(u.Size(), node, windows); !bytes.Equal(again, raw) {
				t.Fatalf("accepted manifest is not what Save writes:\n%q\n%q", raw, again)
			}
		}
	})
}
