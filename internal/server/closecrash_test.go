package server

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graphsig/internal/fault"
)

// closeCrashPoints are the failpoints of a window close on a tiered,
// checkpointing node: the evicted window's compaction into a segment,
// the new window's snapshot file that Add writes beside it, and the
// checkpoint's manifest commit and sweep.
var closeCrashPoints = []string{
	"segment.write", "segment.commit",
	"store.save.window", "store.save.window.commit",
	"store.save.manifest", "store.save.sweep",
}

// tieredFingerprint is archiveFingerprint over both tiers: every window
// the archive serves, hot or cold.
func tieredFingerprint(t *testing.T, s *Server) map[string]string {
	t.Helper()
	u := s.Store().Universe()
	fp := make(map[string]string)
	lo, hi, ok := s.Store().WindowRange()
	for w := lo; ok && w <= hi; w++ {
		set, err := s.Store().Window(w)
		if err != nil || set == nil {
			t.Fatalf("window %d: %v, %v", w, set, err)
		}
		for i, src := range set.Sources {
			var b strings.Builder
			for j, n := range set.Sigs[i].Nodes {
				fmt.Fprintf(&b, "%s@%g ", u.Label(n), set.Sigs[i].Weights[j])
			}
			fp[fmt.Sprintf("%d/%s", set.Window, u.Label(src))] = b.String()
		}
	}
	return fp
}

// TestCrashInsideWindowClose crashes a node with a snapshot, the WAL
// and a segment directory at every hit of closeCrashPoints inside a
// batch that closes a window and evicts one, on one P (Add's legs run
// in sequence) and on two (the compaction and the new window's file are
// written at the same time, and an image may catch them at any point of
// each other). Every image must boot without quarantining anything and
// serve every acknowledged record: its archive, flushed, equals that of
// a node fed exactly the acknowledged batches. What makes any
// interleaving safe: a window file no manifest names yet is ignored at
// boot and swept by the next save, and a segment that already holds a
// window the old manifest's ring still names is the overlap state the
// tiered store resolves (DESIGN.md §8, "Window close").
func TestCrashInsideWindowClose(t *testing.T) {
	t.Cleanup(fault.Reset)
	batches := crashWorkload(6)
	const acked = 5 // batch 5, the one crashed inside, closes window 4 and evicts window 2
	config := func(base string) Config {
		cfg := crashConfig(filepath.Join(base, "snap"))
		cfg.SegmentDir = filepath.Join(base, "seg")
		cfg.StoreCapacity = 2
		return cfg
	}
	ref, err := New(config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:acked] {
		mustIngest(t, ref, b)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := tieredFingerprint(t, ref)
	ref.Abort()
	if lo, hi, _ := ref.Store().WindowRange(); lo != 0 || hi != acked-1 {
		t.Fatalf("the reference archive holds windows [%d,%d], want [0,%d]", lo, hi, acked-1)
	}

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for n, hits := 1, 1; n <= hits; n++ {
				base := t.TempDir()
				cfg := config(base)
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range batches[:acked] {
					mustIngest(t, srv, b)
				}
				var mu sync.Mutex
				count := 0
				var image, point string
				for _, p := range closeCrashPoints {
					fault.Set(p, func() error {
						mu.Lock()
						defer mu.Unlock()
						if count++; count == n {
							image, point = crashImage(t, base), p
						}
						return nil
					})
				}
				res := srv.IngestBatch("", batches[acked])
				fault.Reset()
				srv.Abort()
				if hits = count; res.WindowsClosed != 1 || hits != len(closeCrashPoints) {
					t.Fatalf("the closing batch closed %d windows and hit %d failpoints, want 1 and %d", res.WindowsClosed, hits, len(closeCrashPoints))
				}

				cfg = config(image)
				srv2, err := New(cfg)
				if err != nil {
					t.Fatalf("hit %d (%s): reboot: %v", n, point, err)
				}
				rec := srv2.Recovery()
				if rec.SnapshotQuarantined != "" || rec.WALQuarantined != "" || rec.WALRejected != 0 || len(rec.SegmentsQuarantined) != 0 {
					t.Fatalf("hit %d (%s): recovery %+v", n, point, rec)
				}
				if _, err := srv2.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := tieredFingerprint(t, srv2); !reflect.DeepEqual(got, want) {
					t.Errorf("hit %d of %d (%s): the archive after reboot is\n %v\nwant the acknowledged batches':\n %v", n, hits, point, got, want)
				}
				srv2.Abort()
			}
		})
	}
}
