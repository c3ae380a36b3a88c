package segment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// The two committed fixtures hold the same three windows.
// testdata/v1-text.seg is what Write produced before the binary block
// (header v1, core.WriteSignatureSet text blocks), written by that
// code, and is kept as the file Open must refuse;
// testdata/v2-binary.seg is what Write produces now. To regenerate v2
// after a deliberate format change, Write fixtureSets into a directory
// and copy the file over; v1 never changes.
const (
	fixtureV1 = "testdata/v1-text.seg"
	fixtureV2 = "testdata/v2-binary.seg"
)

// fixtureSets builds the fixtures' windows: both bipartite parts and
// the general one, an empty signature, weight ties, a label that is
// only ever a member, and labels the text codec has to quote.
func fixtureSets(t *testing.T, u *graph.Universe) []*core.SignatureSet {
	t.Helper()
	type sig struct {
		src     string
		members []string
		weights []float64
	}
	part := func(label string) graph.Part {
		switch label[0] {
		case '1':
			return graph.Part1 // 10.0.0.x
		case 'e':
			return graph.Part2 // e-…
		}
		return graph.PartNone
	}
	build := func(scheme string, window int, sigs []sig) *core.SignatureSet {
		var sources []graph.NodeID
		var out []core.Signature
		for _, s := range sigs {
			sources = append(sources, u.MustIntern(s.src, part(s.src)))
			one := core.Signature{Nodes: []graph.NodeID{}, Weights: []float64{}}
			for i, m := range s.members {
				one.Nodes = append(one.Nodes, u.MustIntern(m, part(m)))
				one.Weights = append(one.Weights, s.weights[i])
			}
			out = append(out, one)
		}
		set, err := core.NewSignatureSet(scheme, window, sources, out)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	return []*core.SignatureSet{
		build("tt", -2, []sig{
			{"10.0.0.1", []string{"e-stable", "e-1"}, []float64{0.75, 0.25}},
			{"10.0.0.2", nil, nil},
		}),
		build("tt", 5, []sig{
			{"10.0.0.2", []string{"e-2", "e-stable", "e \"quoted\"\n"}, []float64{1.0 / 3, 1.0 / 3, 1e-300}},
			{"10.0.0.1", []string{"e-stable"}, []float64{1}},
			{"user\x00nul", []string{"table\xffx", "10.0.0.1"}, []float64{2.5, 0.1}},
		}),
		build("ut", 1<<33, []sig{
			{"10.0.0.3", []string{"e-1", "e-2", "e-3", "e-stable"}, []float64{8, 4, 2, 1}},
		}),
	}
}

// TestSegmentFixtures is the format contract: Write of the fixture's
// windows reproduces the v2 fixture byte for byte — the determinism
// primary and follower rely on to stay bitwise identical — the v2
// fixture opens and serves them, and the intact v1 file is refused as
// an old format, not as corruption.
func TestSegmentFixtures(t *testing.T) {
	u := graph.NewUniverse()
	sets := fixtureSets(t, u)

	written, err := Write(t.TempDir(), sets, u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(written.Path())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixtureV2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Write no longer reproduces %s (%d bytes written, %d committed)", fixtureV2, len(got), len(want))
	}
	if filepath.Base(written.Path()) != Name(-2, 1<<33) {
		t.Fatalf("segment named %s", filepath.Base(written.Path()))
	}

	ru := graph.NewUniverse()
	seg, err := Open(fixtureV2, ru)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != len(sets) || seg.First() != -2 || seg.Last() != 1<<33 {
		t.Fatalf("%d windows [%d,%d]", seg.Len(), seg.First(), seg.Last())
	}
	if wins := seg.LabelWindows("10.0.0.1"); len(wins) != 2 || wins[0] != -2 || wins[1] != 5 {
		t.Fatalf("10.0.0.1 indexed in %v", wins)
	}
	for _, want := range sets {
		set, err := seg.ReadWindow(want.Window)
		if err != nil {
			t.Fatal(err)
		}
		assertSetsEqual(t, want, set, u, ru)
	}

	old := graph.NewUniverse()
	if _, err := Open(fixtureV1, old); !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(%s) = %v, want ErrOldFormat and not ErrCorrupt", fixtureV1, err)
	}
	if old.Size() != 0 {
		t.Fatalf("refusing %s interned %d labels", fixtureV1, old.Size())
	}
}
