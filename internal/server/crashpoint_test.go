package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/netflow"
	"graphsig/internal/wal"
)

// Crash points of the one-commit order. A failpoint hook inside the WAL
// runs under its lock and cannot close it, so a crash is taken as an
// image: crashImage copies what the disk holds at that instant — what a
// kill -9 there leaves a reboot — and the original node runs on,
// ignored. An image taken at a wal.sync hit holds the written bytes; the
// power loss that drops them again is the image taken at the wal.write
// hit before it.

// crashImage copies the directory holding a node's snapshot directory,
// its log and any sealed generations to a fresh one. A file that
// vanishes while it is copied — a staged file renamed by a write that
// runs beside the one whose failpoint took the image — is left out: the
// image then holds that write as it was before the file was staged.
func crashImage(t *testing.T, base string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(base, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// crashPoints are the failpoints a WAL commit and a generation change
// pass, in the order they can be hit.
var crashPoints = []string{"wal.write", "wal.sync", "wal.reset", "wal.rotate.dirsync"}

// atHit installs hooks on crashPoints that call at with the point's name
// on the n-th hit overall (from 1) and report how many hits there were.
func atHit(n int, at func(point string)) (hits *int) {
	var mu sync.Mutex
	hits = new(int)
	for _, point := range crashPoints {
		fault.Set(point, func() error {
			mu.Lock()
			*hits++
			fire := *hits == n
			mu.Unlock()
			if fire {
				at(point)
			}
			return nil
		})
	}
	return hits
}

// retryScenario is a node that has acknowledged prime and crashes
// somewhere inside batch — an ID'd batch the client will retry.
type retryScenario struct {
	name      string
	replicate bool
	saveFails bool // store.Save fails while the batch runs
	prime     []netflow.Record
	batch     []netflow.Record
}

func retryScenarios() []retryScenario {
	// Window 0 holds 10.0.0.1 → a three times from the priming batch; the
	// batch under test adds → b once. Applied twice, b's share of the
	// signature is 2/5 instead of 1/4.
	prime := []netflow.Record{flowAt("10.0.0.1", "a", 0, 3), flowAt("10.0.0.2", "a", time.Minute, 1)}
	plain := []netflow.Record{flowAt("10.0.0.1", "b", 2*time.Minute, 1), flowAt("10.0.0.2", "c", 3*time.Minute, 2)}
	closing := append(append([]netflow.Record(nil), plain...),
		flowAt("10.0.0.1", "d", time.Hour, 1), // closes window 0
		flowAt("10.0.0.1", "e", time.Hour+time.Minute, 2),
	)
	return []retryScenario{
		{name: "plain", prime: prime, batch: plain},
		{name: "closing/save-fails", saveFails: true, prime: prime, batch: closing},
		{name: "closing", prime: prime, batch: closing},
		{name: "closing/replicate", replicate: true, prime: prime, batch: closing},
	}
}

// TestCrashInsideBatchRetryAppliesOnce crashes a node at every failpoint
// hit inside one ID'd batch — before and after each write and sync of the
// log, before the truncation of a generation change, before the
// directory sync of a rotation — reboots it from the crash image and
// retries the batch, as its client would: every window, the open one
// included, must equal a single application. One commit carries a
// batch's records and its marker, so the log holds both or neither; a
// closing batch's earlier records are in the snapshot or nowhere.
//
// Run at the parent of this change, all four scenarios fail: plain at
// the two hits between the records' write and the marker's (the image
// holds the records without the marker, the retry applies them again);
// the closing ones at the hits after the pre-checkpoint flush wrote the
// closing window's records and before a snapshot held them (save-fails:
// never), where the replay and the retry both apply them.
func TestCrashInsideBatchRetryAppliesOnce(t *testing.T) {
	t.Cleanup(fault.Reset)
	for _, sc := range retryScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			mustIngest(t, ref, sc.prime)
			ref.IngestBatch("retried", sc.batch)
			if _, err := ref.Flush(); err != nil {
				t.Fatal(err)
			}
			want := archiveFingerprint(ref)

			for n, hits := 1, 1; n <= hits; n++ {
				base := t.TempDir()
				cfg := crashConfig(filepath.Join(base, "snap"))
				cfg.Replicate = sc.replicate
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				mustIngest(t, srv, sc.prime)

				var image, point string
				count := atHit(n, func(p string) { image, point = crashImage(t, base), p })
				if sc.saveFails {
					fault.Set("store.save.manifest", func() error { return errors.New("disk full") })
				}
				srv.IngestBatch("retried", sc.batch)
				fault.Reset()
				srv.Abort()
				hits = *count
				if image == "" {
					t.Fatalf("hit %d of %d never came", n, hits)
				}

				cfg.SnapshotDir = filepath.Join(image, "snap")
				srv2, err := New(cfg)
				if err != nil {
					t.Fatalf("hit %d (%s): reboot: %v", n, point, err)
				}
				if rec := srv2.Recovery(); rec.WALRejected != 0 || rec.WALQuarantined != "" || rec.SnapshotQuarantined != "" {
					t.Fatalf("hit %d (%s): recovery %+v", n, point, rec)
				}
				srv2.IngestBatch("retried", sc.batch)
				if _, err := srv2.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := archiveFingerprint(srv2); !reflect.DeepEqual(got, want) {
					t.Errorf("hit %d of %d (%s): after reboot and retry the archive is\n %v\nwant one application:\n %v",
						n, hits, point, got, want)
				}
				srv2.Abort()
			}
		})
	}
}

// TestCrashBeforeBatchEndLeavesNoRecordOfTheBatch: a closing batch whose
// save succeeded crashes before its batch-end commit is written. The
// snapshot's window wins — it holds the batch's earlier records, once —
// and the log holds no record of the batch nobody acknowledged: what it
// replays is the priming batch (crash before the truncation) or nothing
// (after it).
func TestCrashBeforeBatchEndLeavesNoRecordOfTheBatch(t *testing.T) {
	t.Cleanup(fault.Reset)
	sc := retryScenarios()[2]
	for n, hits := 1, 1; n <= hits; n++ {
		base := t.TempDir()
		cfg := crashConfig(filepath.Join(base, "snap"))
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustIngest(t, srv, sc.prime)
		var image, point string
		count := atHit(n, func(p string) { image, point = crashImage(t, base), p })
		srv.IngestBatch("lost", sc.batch)
		fault.Reset()
		srv.Abort()
		// The hits of a closing batch: wal.reset, the prologue commit's
		// write and sync, the batch-end commit's write and sync. The last
		// one's image holds the batch.
		if hits = *count - 1; *count != 5 {
			t.Fatalf("a closing batch hit %d failpoints, want 5", *count)
		}
		cfg.SnapshotDir = filepath.Join(image, "snap")
		srv2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := srv2.Recovery()
		wantRecords := 0
		if point == "wal.reset" {
			wantRecords = len(sc.prime)
		}
		if !rec.SnapshotRestored || rec.WALRecords != wantRecords || rec.WALWindowsClosed != 0 || rec.WALTornBytes != 0 {
			t.Errorf("hit %d (%s): recovery %+v, want the snapshot and %d replayed records", n, point, rec, wantRecords)
		}
		if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != 0 {
			t.Errorf("hit %d (%s): archive holds [%d,%d] ok=%v, want window 0 from the snapshot", n, point, lo, hi, ok)
		}
		if res := srv2.IngestBatch("lost", nil); res.Deduplicated {
			t.Errorf("hit %d (%s): the unacknowledged batch left a marker", n, point)
		}
		srv2.Abort()
	}
}

// logFrames opens the log beside dir (the server using it must be gone)
// and renders its frames, in order, one word a frame.
func logFrames(t *testing.T, dir string) []string {
	t.Helper()
	w, rep, err := wal.Open(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out []string
	for _, fr := range rep.Frames {
		switch fr.Kind {
		case wal.FrameOrigin:
			out = append(out, "origin")
		case wal.FrameRecord:
			out = append(out, fr.Record.Src+">"+fr.Record.Dst)
		case wal.FrameWatch:
			out = append(out, "watch:"+fr.Watch.Individual)
		case wal.FrameBatch:
			out = append(out, "batch:"+fr.Batch.ID)
		}
	}
	return out
}

// TestFailedSaveThenBatchEnd: when the snapshot of a close fails, the log
// is kept and the whole batch rides its one commit at batch end — the
// closing window's records, the tail, the marker, in that order — so a
// replay re-closes the window and checkpoints it. When that commit's
// sync fails too, nothing of the batch survives, the origin it carried
// is not counted as logged, and the next batch's commit carries it again.
func TestFailedSaveThenBatchEnd(t *testing.T) {
	t.Cleanup(fault.Reset)
	batch := retryScenarios()[1].batch
	saveFails := func() { fault.Set("store.save.manifest", func() error { return errors.New("disk full") }) }

	dir := filepath.Join(t.TempDir(), "snap")
	srv, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	saveFails()
	srv.IngestBatch("b-1", batch)
	fault.Reset()
	srv.Abort()
	want := []string{"origin", "10.0.0.1>b", "10.0.0.2>c", "10.0.0.1>d", "10.0.0.1>e", "batch:b-1"}
	if got := logFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec := srv2.Recovery(); rec.WALWindowsClosed != 1 || rec.WALRejected != 0 {
		t.Fatalf("replay %+v, want window 0 closed again", rec)
	}
	srv2.Abort()
	// The post-replay checkpoint left the open window's tail; the marker
	// went with the generation it was in.
	want = []string{"origin", "10.0.0.1>d", "10.0.0.1>e"}
	if got := logFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the replay's checkpoint the log holds %v, want %v", got, want)
	}

	dir = filepath.Join(t.TempDir(), "snap")
	if srv, err = New(crashConfig(dir)); err != nil {
		t.Fatal(err)
	}
	saveFails()
	fault.Set("wal.sync", func() error { return errors.New("injected sync failure") })
	srv.IngestBatch("b-1", batch)
	fault.Reset()
	if srv.walOriginLogged {
		t.Fatal("origin counted as logged by a commit that failed")
	}
	if info, err := os.Stat(WALPath(dir)); err != nil || info.Size() != wal.HeaderLen {
		t.Fatalf("after the failed commit the log is %v bytes (%v), want its header only", info.Size(), err)
	}
	srv.IngestBatch("b-2", []netflow.Record{flowAt("10.0.0.2", "f", time.Hour+2*time.Minute, 1)})
	srv.Abort()
	want = []string{"origin", "10.0.0.2>f", "batch:b-2"}
	if got := logFrames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
}

// TestGenerationChangeCrashPoints: a node that learned its origin from
// its first record and holds a watch entry — both memory-only outside
// the log — crashes around the commit that opens a new generation. Past
// that commit a reboot finds both. Between the truncation (or the new
// file) and the commit's write it finds an honestly empty log: a header,
// no torn byte, nothing quarantined, the snapshot intact, and a node
// with no origin yet — the instant that is left of what at the parent
// spans two fsyncs. When the commit's sync fails and the node lives, the
// next commit carries the whole prologue again.
func TestGenerationChangeCrashPoints(t *testing.T) {
	t.Cleanup(fault.Reset)
	for _, replicate := range []bool{false, true} {
		t.Run(fmt.Sprintf("replicate=%v", replicate), func(t *testing.T) {
			// boot starts a node with a learned origin, one watch entry
			// and window 0 open.
			boot := func() (base string, cfg Config, srv *Server) {
				base = t.TempDir()
				cfg = crashConfig(filepath.Join(base, "snap"))
				cfg.Stream.Origin = time.Time{}
				cfg.Replicate = replicate
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				mustIngest(t, srv, []netflow.Record{flowAt("10.0.0.1", "a", 7*time.Minute, 3)})
				srv.mu.Lock()
				err = srv.addWatchLocked(wal.WatchEntry{Individual: "case-1", Window: 0, Nodes: []string{"a"}, Weights: []float64{1}}, true)
				srv.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				return base, cfg, srv
			}
			closing := []netflow.Record{flowAt("10.0.0.1", "b", time.Hour+8*time.Minute, 1)}
			origin := testT0.Add(7 * time.Minute)
			reboot := func(cfg Config, base string) *Server {
				cfg.SnapshotDir = filepath.Join(base, "snap")
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rec := srv.Recovery(); !rec.SnapshotRestored || rec.WALTornBytes != 0 || rec.WALQuarantined != "" || rec.WALRejected != 0 {
					t.Fatalf("recovery %+v", rec)
				}
				return srv
			}

			// The generation change's hits: (wal.reset | the sealing
			// commit's none — nothing is staged or dirty — and
			// wal.rotate.dirsync), then the prologue commit's write and
			// sync, then the batch end's.
			for n := 1; n <= 5; n++ {
				base, cfg, srv := boot()
				var image, point string
				count := atHit(n, func(p string) { image, point = crashImage(t, base), p })
				mustIngest(t, srv, closing)
				fault.Reset()
				srv.Abort()
				if *count != 5 {
					t.Fatalf("a closing batch hit %d failpoints, want 5", *count)
				}
				srv2 := reboot(cfg, image)
				got, known := srv2.PipelineOrigin()
				switch {
				case n == 1 && !replicate: // before the truncation: the old generation, whole
					if !known || !got.Equal(origin) || srv2.watch.Len() != 1 || srv2.Recovery().WALRecords != 1 {
						t.Errorf("hit %d (%s): origin %v (%v), %d watch entries, recovery %+v", n, point, got, known, srv2.watch.Len(), srv2.Recovery())
					}
				case n <= 2: // new generation, prologue not written
					if known || srv2.watch.Len() != 0 || srv2.Recovery().WALRecords != 0 {
						t.Errorf("hit %d (%s): want an empty log, got origin %v (%v), %d watch entries, recovery %+v",
							n, point, got, known, srv2.watch.Len(), srv2.Recovery())
					}
				default: // prologue written
					if !known || !got.Equal(origin) || srv2.watch.Len() != 1 {
						t.Errorf("hit %d (%s): origin %v (%v), want %v; %d watch entries, want 1", n, point, got, known, origin, srv2.watch.Len())
					}
					// The next record falls in the window it would have.
					if res := mustIngest(t, srv2, closing); res.CurrentWindow != 1 {
						t.Errorf("hit %d (%s): the next record opened window %d, want 1", n, point, res.CurrentWindow)
					}
				}
				srv2.Abort()
			}

			// The prologue commit's sync fails, the node lives.
			base, cfg, srv := boot()
			failed := false
			fault.Set("wal.sync", func() error {
				if failed {
					return nil // the batch end's passes
				}
				failed = true
				return errors.New("injected sync failure")
			})
			mustIngest(t, srv, closing)
			fault.Reset()
			if !srv.walOriginLogged || srv.walWatchesLogged != 1 {
				t.Fatalf("after the batch end's commit: origin logged %v, %d watch entries logged", srv.walOriginLogged, srv.walWatchesLogged)
			}
			srv.Abort()
			want := []string{"origin", "watch:case-1", "10.0.0.1>b"}
			if got := logFrames(t, cfg.SnapshotDir); !reflect.DeepEqual(got, want) {
				t.Fatalf("log holds %v, want %v", got, want)
			}
			srv2 := reboot(cfg, base)
			if got, known := srv2.PipelineOrigin(); !known || !got.Equal(origin) || srv2.watch.Len() != 1 {
				t.Fatalf("origin %v (%v), want %v; %d watch entries, want 1", got, known, origin, srv2.watch.Len())
			}
			srv2.Abort()
		})
	}
}

// TestFollowerPollSeesWholeCommits polls a replicating primary the way
// a follower does from between the steps of one ID'd batch's commit —
// before the write, and between the write and the sync. Whatever a poll started there comes
// back with, and whenever, it is the log up to a commit boundary: the
// batch's records never arrive without the marker that makes its retry
// idempotent on a node promoted from those bytes.
func TestFollowerPollSeesWholeCommits(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := crashConfig(filepath.Join(t.TempDir(), "snap"))
	cfg.Replicate = true
	srv, client, closeHTTP := newTestServer(t, cfg)
	defer closeHTTP()
	defer srv.Abort()
	sc := retryScenarios()[0]
	mustIngest(t, srv, sc.prime)
	from := srv.wal.DurableSize()

	var polls sync.WaitGroup
	chunks := make(chan WALChunk, 3) // one a poll: the commit's two failpoint hits, and the poll after it
	poll := func() {
		polls.Add(1)
		go func() {
			defer polls.Done()
			chunk, err := client.FetchWAL(0, from, 0)
			if err != nil {
				t.Errorf("poll: %v", err)
			}
			chunks <- chunk
		}()
	}
	for _, point := range []string{"wal.write", "wal.sync"} {
		fault.Set(point, func() error { poll(); return nil })
	}
	srv.IngestBatch("polled", sc.batch)
	poll()
	polls.Wait()
	close(chunks)
	whole := 0
	for chunk := range chunks {
		frames, consumed, err := wal.ScanFrames(chunk.Data)
		if err != nil || consumed != int64(len(chunk.Data)) {
			t.Fatalf("a poll returned %d bytes ending mid-frame (%d consumed, %v)", len(chunk.Data), consumed, err)
		}
		switch {
		case len(frames) == 0:
		case len(frames) == len(sc.batch)+1 && frames[len(sc.batch)].Kind == wal.FrameBatch:
			whole++
		default:
			t.Fatalf("a poll returned %d frames of a batch of %d records and a marker", len(frames), len(sc.batch))
		}
	}
	if whole == 0 {
		t.Fatal("no poll saw the committed batch")
	}
}

// TestRestartLogsNoPrologueTwice: a rebooted node's generation already
// holds the origin and the watch entries it replayed, and the first
// commit after the reboot — a batch that closes no window — must not put
// them into the same generation again: the watchlist does not
// deduplicate, so the reboot after that would load each entry twice, and
// a follower tailing the log (it skips replayed entries only where a
// generation begins) at once. The generation after the next close opens
// with the set, once.
func TestRestartLogsNoPrologueTwice(t *testing.T) {
	for _, replicate := range []bool{false, true} {
		t.Run(fmt.Sprintf("replicate=%v", replicate), func(t *testing.T) {
			cfg := crashConfig(filepath.Join(t.TempDir(), "snap"))
			cfg.Stream.Origin = time.Time{}
			cfg.Replicate = replicate
			reboot := func() *Server {
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
			srv := reboot()
			mustIngest(t, srv, []netflow.Record{flowAt("10.0.0.1", "a", 7*time.Minute, 3)})
			srv.mu.Lock()
			err := srv.addWatchLocked(wal.WatchEntry{Individual: "case-1", Window: 0, Nodes: []string{"a"}, Weights: []float64{1}}, true)
			srv.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			srv.Abort()

			for life := 2; life <= 3; life++ {
				srv = reboot()
				if srv.watch.Len() != 1 || !srv.walOriginLogged || srv.walWatchesLogged != 1 {
					t.Fatalf("life %d: %d watch entries; origin logged %v, %d watch entries logged", life, srv.watch.Len(), srv.walOriginLogged, srv.walWatchesLogged)
				}
				srv.IngestBatch(fmt.Sprintf("b-%d", life), []netflow.Record{flowAt("10.0.0.1", "b", time.Duration(6+life)*time.Minute, 1)})
				srv.Abort()
			}
			want := []string{"origin", "10.0.0.1>a", "watch:case-1", "10.0.0.1>b", "batch:b-2", "10.0.0.1>b", "batch:b-3"}
			if got := logFrames(t, cfg.SnapshotDir); !reflect.DeepEqual(got, want) {
				t.Fatalf("log holds %v, want %v", got, want)
			}

			srv = reboot()
			mustIngest(t, srv, []netflow.Record{flowAt("10.0.0.1", "c", time.Hour+8*time.Minute, 1)})
			srv.Abort()
			want = []string{"origin", "watch:case-1", "10.0.0.1>c"}
			if got := logFrames(t, cfg.SnapshotDir); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a close the log holds %v, want %v", got, want)
			}
			if srv = reboot(); srv.watch.Len() != 1 {
				t.Fatalf("the last reboot holds %d watch entries, want 1", srv.watch.Len())
			}
			srv.Abort()
		})
	}
}
