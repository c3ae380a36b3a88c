package segment

import (
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/budget"
	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// TestBlockUseAfterReleasePanics: a released block reads nothing — not
// the bytes it had, and not those of the window read into them since.
func TestBlockUseAfterReleasePanics(t *testing.T) {
	u := graph.NewUniverse()
	sets := threeWindows(t, u)
	seg, err := Write(t.TempDir(), sets, u)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("a")
	var buf core.Signature
	query := core.Signature{Nodes: []graph.NodeID{a}, Weights: []float64{1}}
	uses := map[string]func(b *Block){
		"Source":  func(b *Block) { b.Source(0) },
		"IsEmpty": func(b *Block) { b.IsEmpty(0) },
		"Row":     func(b *Block) { b.Row(a) },
		"Sig":     func(b *Block) { b.Sig(0) },
		"SigInto": func(b *Block) { b.SigInto(0, &buf) },
		"Set":     func(b *Block) { b.Set() },
		"Scan":    func(b *Block) { b.Scan(core.Jaccard{}, query, 1, -1, func(int, float64) {}) },
	}
	for name, use := range uses {
		b, err := seg.ReadBlock(3)
		if err != nil {
			t.Fatal(err)
		}
		use(b) // fine while held
		b.Release()
		other, err := seg.ReadBlock(7) // the scratch is in use again
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released block did not panic", name)
				}
			}()
			use(b)
		}()
		b.Release() // twice is harmless: the block holds nothing to give back
		if other.Len() != sets[2].Len() || other.Window() != 7 {
			t.Fatalf("%s: the block read after the release is %d rows of window %d", name, other.Len(), other.Window())
		}
		other.Release()
	}
}

// TestBlockResultsSurviveRelease: Sig, SigInto and Set copy. What they
// returned is untouched, bit for bit, by the release of the block and by
// reads of other windows into the scratch it gave back.
func TestBlockResultsSurviveRelease(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := graph.NewUniverse()
		sets := randomSets(t, rng, u, 4)
		seg, err := Write(t.TempDir(), sets, u)
		if err != nil {
			t.Fatal(err)
		}
		for w, want := range sets {
			b, err := seg.ReadBlock(want.Window)
			if err != nil {
				t.Fatal(err)
			}
			set, err := b.Set()
			if err != nil {
				t.Fatal(err)
			}
			sigs := make([]core.Signature, b.Len())
			into := make([]core.Signature, b.Len())
			for i := range sigs {
				sigs[i] = b.Sig(i)
				b.SigInto(i, &into[i])
			}
			b.Release()
			// Every other window goes through the pool before the copies
			// are looked at.
			for o, other := range sets {
				if o == w {
					continue
				}
				ob, err := seg.ReadBlock(other.Window)
				if err != nil {
					t.Fatal(err)
				}
				assertBlockMatchesSet(t, ob, other, u)
				ob.Release()
			}
			assertSetsEqual(t, want, set, u, u)
			for i, sig := range want.Sigs {
				for name, got := range map[string]core.Signature{"Sig": sigs[i], "SigInto": into[i]} {
					if !slices.Equal(got.Nodes, sig.Nodes) || !sameBits(got.Weights, sig.Weights) {
						t.Fatalf("seed %d window %d row %d: %s after release %v, written %v", seed, want.Window, i, name, got, sig)
					}
				}
			}
		}
	}
}

// TestReadBlockReleasedBudget: a read whose block is released costs the
// file handle, the Block and the scheme string — a few hundred bytes —
// whatever the size of the window; unreleased, it costs the window.
func TestReadBlockReleasedBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	u := graph.NewUniverse()
	written, err := Write(t.TempDir(), []*core.SignatureSet{benchSet(t, u, 0)}, u)
	if err != nil {
		t.Fatal(err)
	}
	read := func(release bool) func() {
		return func() {
			b, err := written.ReadBlock(0)
			if err != nil || b.Len() != 1200 {
				t.Fatalf("read %v: %v", b, err)
			}
			if release {
				b.Release()
			}
		}
	}
	read(true)() // grow the scratch
	if allocs, bytes := budget.PerRun(20, read(true)); allocs > 8 || bytes > 1024 {
		t.Errorf("a released read allocates %v times, %v bytes; want at most 8 and 1024", allocs, bytes)
	}
	if _, bytes := budget.PerRun(20, read(false)); bytes < float64(written.Size())/2 {
		t.Errorf("an unreleased read of a %d-byte window allocates %v bytes: is the scratch shared?", written.Size(), bytes)
	}
}
