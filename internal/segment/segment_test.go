package segment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/durable"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
)

// buildSet makes a window's SignatureSet over u from label → member
// weights, interning labels in sorted order for determinism.
func buildSet(t *testing.T, u *graph.Universe, window int, sigs map[string]map[string]float64) *core.SignatureSet {
	t.Helper()
	labels := make([]string, 0, len(sigs))
	for l := range sigs {
		labels = append(labels, l)
	}
	for i := range labels {
		for j := i + 1; j < len(labels); j++ {
			if labels[j] < labels[i] {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
	}
	var sources []graph.NodeID
	var out []core.Signature
	for _, l := range labels {
		v := u.MustIntern(l, graph.PartNone)
		w := map[graph.NodeID]float64{}
		for m, weight := range sigs[l] {
			w[u.MustIntern(m, graph.PartNone)] = weight
		}
		sources = append(sources, v)
		out = append(out, core.FromWeights(w, 10))
	}
	set, err := core.NewSignatureSet("tt", window, sources, out)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func threeWindows(t *testing.T, u *graph.Universe) []*core.SignatureSet {
	t.Helper()
	return []*core.SignatureSet{
		buildSet(t, u, 3, map[string]map[string]float64{
			"a": {"x": 1},
			"b": {"x": 0.5, "y": 0.5},
		}),
		buildSet(t, u, 4, map[string]map[string]float64{
			"a": {"y": 1},
		}),
		buildSet(t, u, 7, map[string]map[string]float64{
			"b": {"x": 0.25, "z": 0.75},
			"c": {"z": 1},
		}),
	}
}

// assertSetsEqual compares two sets label-space (the universes may
// assign different NodeIDs).
func assertSetsEqual(t *testing.T, want, got *core.SignatureSet, wu, gu *graph.Universe) {
	t.Helper()
	if want.Window != got.Window || want.Scheme != got.Scheme {
		t.Fatalf("window/scheme mismatch: (%d,%s) != (%d,%s)", got.Window, got.Scheme, want.Window, want.Scheme)
	}
	if len(want.Sources) != len(got.Sources) {
		t.Fatalf("window %d: %d sources, want %d", want.Window, len(got.Sources), len(want.Sources))
	}
	for i := range want.Sources {
		if wl, gl := wu.Label(want.Sources[i]), gu.Label(got.Sources[i]); wl != gl {
			t.Fatalf("window %d source %d: %q != %q", want.Window, i, gl, wl)
		}
		ws, gs := want.Sigs[i], got.Sigs[i]
		if ws.Len() != gs.Len() {
			t.Fatalf("window %d sig %d: len %d != %d", want.Window, i, gs.Len(), ws.Len())
		}
		for j := range ws.Nodes {
			if wu.Label(ws.Nodes[j]) != gu.Label(gs.Nodes[j]) ||
				math.Float64bits(ws.Weights[j]) != math.Float64bits(gs.Weights[j]) {
				t.Fatalf("window %d sig %d member %d differs", want.Window, i, j)
			}
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	u := graph.NewUniverse()
	sets := threeWindows(t, u)
	seg, err := Write(dir, sets, u)
	if err != nil {
		t.Fatal(err)
	}
	if seg.First() != 3 || seg.Last() != 7 || seg.Len() != 3 {
		t.Fatalf("first=%d last=%d len=%d", seg.First(), seg.Last(), seg.Len())
	}

	// Reopen against a fresh universe: the file must be self-contained.
	u2 := graph.NewUniverse()
	paths, err := List(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("list = %v, %v", paths, err)
	}
	got, err := Open(paths[0], u2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range sets {
		set, err := got.ReadWindow(want.Window)
		if err != nil {
			t.Fatal(err)
		}
		assertSetsEqual(t, want, set, u, u2)
	}
	if _, err := got.ReadWindow(5); err == nil {
		t.Fatal("reading an absent window succeeded")
	}
	if wins := got.LabelWindows("b"); len(wins) != 2 || wins[0] != 3 || wins[1] != 7 {
		t.Fatalf(`label "b" windows = %v`, wins)
	}
	if wins := got.LabelWindows("x"); wins != nil {
		t.Fatalf("non-source label indexed: %v", wins)
	}
	if !got.Contains(4) || got.Contains(6) {
		t.Fatal("Contains disagrees with the TOC")
	}
}

// Compaction must be deterministic: re-writing the same windows (e.g. a
// crash-replay re-eviction, or a follower compacting the shipped WAL)
// must reproduce the file bit-identically.
func TestSegmentWriteDeterministic(t *testing.T) {
	u := graph.NewUniverse()
	sets := threeWindows(t, u)
	dirA, dirB := t.TempDir(), t.TempDir()
	segA, err := Write(dirA, sets, u)
	if err != nil {
		t.Fatal(err)
	}
	segB, err := Write(dirB, sets, u)
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(segA.Path())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segB.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same windows produced different segment bytes")
	}
}

func TestSegmentTornTailCorrupt(t *testing.T) {
	dir := t.TempDir()
	u := graph.NewUniverse()
	seg, err := Write(dir, threeWindows(t, u), u)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 3} {
		if err := os.WriteFile(seg.Path(), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(seg.Path(), graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestSegmentFlippedByteCorrupt(t *testing.T) {
	dir := t.TempDir()
	u := graph.NewUniverse()
	seg, err := Write(dir, threeWindows(t, u), u)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg.Path())
	if err != nil {
		t.Fatal(err)
	}
	// No byte is outside a checksum — the footer's own hex digits
	// included, whose case a lenient parse would let through.
	for off := range raw {
		raw[off] ^= 0x20
		if _, err := parse(seg.Path(), raw, graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorrupt", off, err)
		}
		raw[off] ^= 0x20
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(seg.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(seg.Path(), graph.NewUniverse()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	q, err := durable.Quarantine(seg.Path())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(seg.Path()); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place after quarantine")
	}
}

func TestSegmentListCleansTmp(t *testing.T) {
	dir := t.TempDir()
	u := graph.NewUniverse()
	if _, err := Write(dir, threeWindows(t, u), u); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, Name(9, 9)+durable.TmpSuffix)
	if err := os.WriteFile(stale, []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("listed %v", paths)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale .tmp survived List")
	}
}

func TestSegmentWriteFailpoints(t *testing.T) {
	u := graph.NewUniverse()
	sets := threeWindows(t, u)
	for _, point := range []string{"segment.write", "segment.commit"} {
		dir := t.TempDir()
		fault.Set(point, func() error { return fmt.Errorf("injected") })
		_, err := Write(dir, sets, u)
		fault.Reset()
		if err == nil {
			t.Fatalf("%s: write succeeded", point)
		}
		// Whatever the crash point left behind, a fresh attach sees no
		// committed segment.
		paths, err := List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 0 {
			t.Fatalf("%s: committed files after failed write: %v", point, paths)
		}
		// And the retry goes through cleanly.
		if _, err := Write(dir, sets, u); err != nil {
			t.Fatalf("%s: retry failed: %v", point, err)
		}
	}
}
