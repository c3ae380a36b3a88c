package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/netflow"
	"graphsig/internal/segment"
	"graphsig/internal/store"
	"graphsig/internal/wal"
)

// crashConfig is testConfig plus persistence rooted at dir.
func crashConfig(dir string) Config {
	cfg := testConfig()
	cfg.SnapshotDir = dir
	return cfg
}

// crashWorkload builds windows flow batches, one batch per window, each
// giving three local hosts distinct per-window behaviour. Ingesting
// batch w closes window w-1 (its first record falls in window w).
func crashWorkload(windows int) [][]netflow.Record {
	batches := make([][]netflow.Record, windows)
	for w := 0; w < windows; w++ {
		off := time.Duration(w) * time.Hour
		batches[w] = []netflow.Record{
			flowAt("10.0.0.1", fmt.Sprintf("e%d", w), off, 3),
			flowAt("10.0.0.1", "e-stable", off+time.Minute, 1),
			flowAt("10.0.0.2", fmt.Sprintf("e%d", w+100), off+2*time.Minute, 2),
			flowAt("10.0.0.3", "e-stable", off+3*time.Minute, w+1),
		}
	}
	return batches
}

// archiveFingerprint renders every archived signature as
// "window/label: nodes@weights" lines, comparable across servers whose
// universes interned node IDs in different orders.
func archiveFingerprint(s *Server) map[string]string {
	u := s.Store().Universe()
	fp := make(map[string]string)
	for _, set := range s.Store().Windows() {
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

func mustIngest(t testing.TB, s *Server, records []netflow.Record) IngestResult {
	t.Helper()
	res := s.IngestRecords(records)
	if res.Rejected != 0 {
		t.Fatalf("ingest rejected %d records: %v", res.Rejected, res.Errors)
	}
	return res
}

// TestCrashRecoveryReplaysWAL is the headline crash test: a server
// accumulates several windows plus a partial one, dies without Shutdown
// (kill -9: nothing flushed, no final snapshot), and a second server
// booted from the same state must recover every committed window AND
// the open window's records from the WAL — replaying with zero rejected
// records — then finish the workload with an archive identical to a
// crash-free run.
func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	batches := crashWorkload(5)

	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0 and 1 close; batch 2's records stay in the open window.
	for _, b := range batches[:3] {
		mustIngest(t, srv1, b)
	}
	// Crash: srv1 is abandoned mid-flight. Its WAL holds the open
	// window's records (batch 2); windows 0-1 are in the snapshot.

	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if !rec.SnapshotRestored {
		t.Fatal("snapshot not restored")
	}
	if rec.WALRecords != len(batches[2]) || rec.WALRejected != 0 {
		t.Fatalf("WAL replay = %+v, want %d records, 0 rejected", rec, len(batches[2]))
	}
	if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != 1 {
		t.Fatalf("recovered window range = [%d,%d] ok=%v", lo, hi, ok)
	}
	for _, b := range batches[3:] {
		mustIngest(t, srv2, b)
	}
	if _, err := srv2.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reference: the same workload through one crash-free server.
	ref, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustIngest(t, ref, b)
	}
	if _, err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	got, want := archiveFingerprint(srv2), archiveFingerprint(ref)
	if len(got) != len(want) {
		t.Fatalf("recovered archive has %d signatures, reference %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("signature %s diverged after recovery:\n got %q\nwant %q", k, got[k], w)
		}
	}
}

// TestSnapshotFailureWindowsRecoveredFromWAL simulates a full disk:
// every snapshot save fails while windows keep closing, so the WAL is
// never truncated and becomes the only copy of the archive. The next
// boot must rebuild every window from the log alone and immediately
// checkpoint it to disk.
func TestSnapshotFailureWindowsRecoveredFromWAL(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := filepath.Join(t.TempDir(), "snap")
	batches := crashWorkload(4)

	fault.Set("store.save.manifest", fault.FailAfter(0, errors.New("disk full")))
	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		mustIngest(t, srv1, b) // closes windows 0-2; every save fails
	}
	if store.SnapshotExists(dir) {
		t.Fatal("snapshot written despite injected save failure")
	}

	fault.Reset()
	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if rec.SnapshotRestored {
		t.Fatal("restored a snapshot that should not exist")
	}
	if rec.WALWindowsClosed != 3 || rec.WALRejected != 0 {
		t.Fatalf("WAL replay = %+v, want 3 windows closed, 0 rejected", rec)
	}
	if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != 2 {
		t.Fatalf("rebuilt window range = [%d,%d] ok=%v", lo, hi, ok)
	}
	// The post-replay checkpoint must have made the rebuild durable.
	if !store.SnapshotExists(dir) {
		t.Fatal("post-replay checkpoint did not write a snapshot")
	}
	// A third boot restores from the fresh snapshot, replaying only the
	// open window's tail.
	srv3, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec3 := srv3.Recovery()
	if !rec3.SnapshotRestored || rec3.WALWindowsClosed != 0 || rec3.WALRejected != 0 {
		t.Fatalf("third boot recovery = %+v", rec3)
	}
}

// TestShutdownSaveFailureKeepsWAL: when the final snapshot save fails,
// Shutdown must report the error and leave the WAL intact — it is the
// only surviving copy of the ingested records, and the next boot must
// rebuild the archive from it.
func TestShutdownSaveFailureKeepsWAL(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := filepath.Join(t.TempDir(), "snap")

	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, srv1, window0Flows())
	fault.Set("store.save.manifest", fault.FailAfter(0, errors.New("disk full")))
	if err := srv1.Shutdown(); err == nil {
		t.Fatal("Shutdown succeeded despite injected save failure")
	}

	fault.Reset()
	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	// Shutdown's Flush closed the window in memory only; the replayed
	// WAL re-derives it (flushed again by this test, since replay leaves
	// it open until a closing record or Flush arrives).
	if rec.WALRecords != len(window0Flows()) || rec.WALRejected != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if _, err := srv2.Flush(); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := srv2.Store().WindowRange(); !ok || lo != 0 || hi != 0 {
		t.Fatalf("window range after recovery = [%d,%d] ok=%v", lo, hi, ok)
	}
}

// TestCorruptSnapshotQuarantinedAtBoot flips one byte in each snapshot
// file in turn: every corruption must be detected at boot, the damaged
// snapshot moved aside, and the server come up fresh and serving — a
// bad disk never prevents startup.
func TestCorruptSnapshotQuarantinedAtBoot(t *testing.T) {
	base := filepath.Join(t.TempDir(), "snap")
	srv, err := New(crashConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range crashWorkload(3) {
		mustIngest(t, srv, b)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// Named by window ("window-000000001"), not by file: the rest of
		// a window file's name is a checksum of its content.
		t.Run(e.Name()[:min(len(e.Name()), len("window-000000000"))], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			copyTree(t, base, dir)
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			srv2, err := New(crashConfig(dir))
			if err != nil {
				t.Fatalf("boot failed on corrupt %s: %v", e.Name(), err)
			}
			rec := srv2.Recovery()
			if rec.SnapshotRestored || rec.SnapshotQuarantined == "" {
				t.Fatalf("corruption in %s not quarantined: %+v", e.Name(), rec)
			}
			if _, err := os.Stat(rec.SnapshotQuarantined); err != nil {
				t.Fatalf("quarantine dir missing: %v", err)
			}
			if srv2.Store().Len() != 0 {
				t.Fatalf("fresh boot has %d windows", srv2.Store().Len())
			}
			// The server still serves: a full window cycle works.
			mustIngest(t, srv2, crashWorkload(2)[0])
			mustIngest(t, srv2, crashWorkload(2)[1])
			if srv2.Store().Len() != 1 {
				t.Fatalf("post-quarantine ingest closed %d windows", srv2.Store().Len())
			}
		})
	}
}

// bootLogs are the logs a boot the store refuses must leave as it
// found them: none (which must not be created), one with a torn tail
// (which must not be cut) and one with a destroyed header (which must
// not be quarantined). The log is read beside the store's load; only
// what writes waits for the store.
var bootLogs = []struct {
	name string
	make func(t *testing.T, path string)
}{
	{"no log", func(*testing.T, string) {}},
	{"torn log", func(t *testing.T, path string) {
		w, _, err := wal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		w.StageOrigin(testT0, time.Hour)
		if err := w.Append(window0Flows()); err != nil {
			t.Fatal(err)
		}
		size, err := w.Size()
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, size-3); err != nil {
			t.Fatal(err)
		}
	}},
	{"corrupt log", func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("not a wal, definitely"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

// diskUnder maps every file and directory under root to its bytes
// ("/" for a directory).
func diskUnder(t *testing.T, root string) map[string]string {
	t.Helper()
	disk := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			disk[path] = "/"
			return err
		}
		data, err := os.ReadFile(path)
		disk[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

// assertRefusedBootWritesNothing boots cfg, whose directories live
// under base, once beside each of bootLogs at its WAL path: New must
// fail with an error refused accepts, and leave every byte under base
// as it was.
func assertRefusedBootWritesNothing(t *testing.T, base string, cfg Config, refused func(error) bool) {
	t.Helper()
	for _, log := range bootLogs {
		path := WALPath(cfg.SnapshotDir)
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		log.make(t, path)
		before := diskUnder(t, base)
		if _, err := New(cfg); !refused(err) {
			t.Fatalf("%s: New = %v", log.name, err)
		}
		if after := diskUnder(t, base); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused boot changed the disk:\n%v\n->\n%v", log.name, names(before), names(after))
		}
	}
}

func names(disk map[string]string) []string {
	out := make([]string, 0, len(disk))
	for name, data := range disk {
		out = append(out, fmt.Sprintf("%s (%d bytes)", name, len(data)))
	}
	sort.Strings(out)
	return out
}

// TestOldFormatSnapshotRefusedAtBoot: a graphsig-store v2 or v3
// directory is healthy data this build no longer reads. Boot must fail
// with store.ErrOldFormat and leave every file where it was —
// quarantining it like a corrupt snapshot would silently drop its
// windows —, the log beside it included.
func TestOldFormatSnapshotRefusedAtBoot(t *testing.T) {
	for _, fixture := range []string{"snapshot-v2", "snapshot-v3"} {
		base := t.TempDir()
		dir := filepath.Join(base, "snap")
		copyTree(t, filepath.Join("..", "store", "testdata", fixture), dir)
		assertRefusedBootWritesNothing(t, base, crashConfig(dir), func(err error) bool {
			return errors.Is(err, store.ErrOldFormat) && !errors.Is(err, store.ErrCorrupt)
		})
	}
}

// TestOldFormatSegmentRefusedAtBoot: a `graphsig-segment v1` text-block
// file in the segment directory stops the boot with
// segment.ErrOldFormat and the directory as it was — the build that
// wrote the file still serves it —, and the log as it was.
func TestOldFormatSegmentRefusedAtBoot(t *testing.T) {
	base := t.TempDir()
	cfg := crashConfig(filepath.Join(base, "snap"))
	cfg.SegmentDir = filepath.Join(base, "segments")
	old, err := os.ReadFile(filepath.Join("..", "segment", "testdata", "v1-text.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.SegmentDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.SegmentDir, segment.Name(-2, 1<<33)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	assertRefusedBootWritesNothing(t, base, cfg, func(err error) bool {
		return errors.Is(err, segment.ErrOldFormat) && !errors.Is(err, segment.ErrCorrupt)
	})
}

// TestStoreIOErrorRefusedAtBoot: a snapshot the store cannot read — an
// I/O error, here a MANIFEST that is a directory — is not corruption:
// boot fails with the error and writes nothing, the log included.
func TestStoreIOErrorRefusedAtBoot(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "snap")
	if err := os.MkdirAll(filepath.Join(dir, "MANIFEST"), 0o755); err != nil {
		t.Fatal(err)
	}
	assertRefusedBootWritesNothing(t, base, crashConfig(dir), func(err error) bool {
		var pathErr *os.PathError
		return errors.As(err, &pathErr) && !errors.Is(err, store.ErrCorrupt)
	})
}

// TestCorruptWALQuarantinedAfterStoreOpens: beside a good snapshot, a
// log with a destroyed header is read while the store loads but moved
// aside only once the store has opened — at every window Load adds (the
// store.add failpoint) the log is still in place — and then the boot
// proceeds with the snapshot's windows and a fresh log.
func TestCorruptWALQuarantinedAfterStoreOpens(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := filepath.Join(t.TempDir(), "snap")
	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range crashWorkload(3) {
		mustIngest(t, srv1, batch)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	saved := srv1.Store().Len()
	garbage := []byte("not a wal, definitely")
	if err := os.WriteFile(WALPath(dir), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := 0
	fault.Set("store.add", func() error {
		loaded++
		if got, err := os.ReadFile(WALPath(dir)); err != nil || !bytes.Equal(got, garbage) {
			t.Errorf("the log changed while the store was loading: %q, %v", got, err)
		}
		return nil
	})
	srv2, err := New(crashConfig(dir))
	fault.Reset()
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if !rec.SnapshotRestored || saved == 0 || loaded != saved || srv2.Store().Len() != saved {
		t.Fatalf("boot restored %d windows (%d loaded, snapshot %v); want the %d saved", srv2.Store().Len(), loaded, rec.SnapshotRestored, saved)
	}
	if got, err := os.ReadFile(rec.WALQuarantined); err != nil || !bytes.Equal(got, garbage) {
		t.Fatalf("corrupt log not quarantined whole: %+v: %q, %v", rec, got, err)
	}
	mustIngest(t, srv2, crashWorkload(5)[4])
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptWALQuarantinedAtBoot destroys the WAL header: the log must
// be moved aside, a fresh one started, and boot proceed cleanly.
func TestCorruptWALQuarantinedAtBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(WALPath(dir), []byte("not a wal, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := srv.Recovery()
	if rec.WALQuarantined == "" {
		t.Fatalf("corrupt WAL not quarantined: %+v", rec)
	}
	if _, err := os.Stat(rec.WALQuarantined); err != nil {
		t.Fatalf("quarantined WAL missing: %v", err)
	}
	mustIngest(t, srv, window0Flows())
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailAtBoot truncates the log mid-frame, as a crash during
// an append would: boot must drop the torn tail, reject nothing, and
// keep serving.
func TestWALTornTailAtBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, srv1, window0Flows())
	// Crash, then tear the last frame.
	fi, err := os.Stat(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(WALPath(dir), fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := srv2.Recovery()
	if rec.WALTornBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if rec.WALRejected != 0 {
		t.Fatalf("replay rejected %d records", rec.WALRejected)
	}
	if rec.WALRecords != len(window0Flows())-1 {
		t.Fatalf("replayed %d records, want %d", rec.WALRecords, len(window0Flows())-1)
	}
}

// TestIngestDedupIdempotent re-sends a batch under the same ID: the
// second call must return the recorded result without re-counting the
// flows, while a different ID goes through the pipeline normally.
func TestIngestDedupIdempotent(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := srv.IngestBatch("batch-1", window0Flows())
	if first.Accepted != len(window0Flows()) || first.Deduplicated {
		t.Fatalf("first ingest = %+v", first)
	}
	replayed := srv.IngestBatch("batch-1", window0Flows())
	if !replayed.Deduplicated || replayed.Accepted != first.Accepted {
		t.Fatalf("replayed ingest = %+v", replayed)
	}
	if got := srv.metrics.FlowsReceived.Value(); got != int64(len(window0Flows())) {
		t.Fatalf("flows_received = %d after dedup, want %d", got, len(window0Flows()))
	}
	if got := srv.metrics.BatchesDeduped.Value(); got != 1 {
		t.Fatalf("batches_deduped = %d, want 1", got)
	}
	// Without an ID every call hits the pipeline again: the repeat is
	// re-counted (double ingestion), never answered from the dedup set.
	res := srv.IngestBatch("", window0Flows())
	if res.Deduplicated || res.Accepted != len(window0Flows()) {
		t.Fatalf("no-ID repeat = %+v", res)
	}
	if got := srv.metrics.FlowsReceived.Value(); got != int64(2*len(window0Flows())) {
		t.Fatalf("flows_received = %d after no-ID repeat, want %d", got, 2*len(window0Flows()))
	}
}

// TestIngestDedupEviction: the dedup set is bounded FIFO — the oldest
// ID falls out once the cap is exceeded. There is no cap without a
// set: a negative one is refused.
func TestIngestDedupEviction(t *testing.T) {
	cfg := testConfig()
	cfg.DedupCap = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative DedupCap accepted")
	}
	cfg.DedupCap = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.IngestBatch("a", window0Flows())
	srv.IngestBatch("b", nil)
	srv.IngestBatch("c", nil)
	if res := srv.IngestBatch("a", window0Flows()); res.Deduplicated {
		t.Fatalf("evicted ID still deduplicated: %+v", res)
	}
	if res := srv.IngestBatch("c", nil); !res.Deduplicated {
		t.Fatalf("retained ID not deduplicated: %+v", res)
	}
}

// TestIngestThrottled429: with MaxInFlight=1 and one request parked on
// the ingest hold failpoint, a second POST /v1/flows must be shed with
// 429 and a Retry-After hint rather than queue without bound.
func TestIngestThrottled429(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := testConfig()
	cfg.MaxInFlight = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	fault.Set("server.ingest.hold", func() error {
		if !once {
			once = true
			close(entered)
			<-release
		}
		return nil
	})

	c := NewClient(ts.URL)
	c.MaxRetries = 0
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Ingest(window0Flows())
		firstDone <- err
	}()
	<-entered

	resp, err := http.Post(ts.URL+"/v1/flows", "application/json", strings.NewReader(`{"records":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("held ingest failed: %v", err)
	}
	if got := srv.metrics.IngestThrottled.Value(); got != 1 {
		t.Fatalf("ingest_throttled = %d, want 1", got)
	}
}

// TestClientRetriesTransientFailures: the client must retry transport
// and 5xx/429 failures with the SAME batch ID (so a server that applied
// a timed-out POST deduplicates the retry), and must not retry
// permanent 4xx errors.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls int
	var ids []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		id, _, ok := ReadFlows(w, r)
		if !ok {
			t.Error("the retry request was refused")
			return
		}
		ids = append(ids, id)
		if calls <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"received":1,"accepted":1}`)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.RetryBackoff = time.Millisecond
	res, err := c.Ingest([]netflow.Record{flowAt("10.0.0.1", "e1", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || calls != 3 {
		t.Fatalf("res=%+v calls=%d", res, calls)
	}
	if ids[0] == "" || ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("batch ID not stable across retries: %q", ids)
	}

	// Permanent failures, an over-limit body's 413 among them, are not
	// retried.
	for _, status := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		calls = 0
		ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls++
			WriteError(w, status, "refused")
		}))
		c2 := NewClient(ts2.URL)
		c2.RetryBackoff = time.Millisecond
		_, err := c2.Ingest(nil)
		ts2.Close()
		if APIStatus(err) != status {
			t.Fatalf("%d reported as %v", status, err)
		}
		if calls != 1 {
			t.Fatalf("%d retried: %d calls", status, calls)
		}
	}
}

// copyTree clones a snapshot directory so subtests can corrupt
// independent copies.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// walRecordLabels opens the log beside dir (the server using it must be
// gone) and returns "src>dst" of every record frame, in log order.
func walRecordLabels(t *testing.T, dir string) []string {
	t.Helper()
	w, rep, err := wal.Open(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out []string
	for _, fr := range rep.Frames {
		if fr.Kind == wal.FrameRecord {
			out = append(out, fr.Record.Src+">"+fr.Record.Dst)
		}
	}
	return out
}

// TestIngestLogsAcceptedRunsInOrder: the log receives the accepted
// records of a batch as the stretches between the ones it leaves out —
// a dropped non-TCP record, a rejected one, and a window close in the
// middle — and must hold exactly those records, in order, with one
// commit (one write, one fsync) where something is acknowledged and
// none anywhere else. A batch that closes a window makes two: the
// generation change (the truncation, made durable together with the new
// generation's origin) and the batch end (the open window's records).
// The closing window's own records never reach the log: by the time
// anything is acknowledged the snapshot holds them. A plain batch makes
// one commit, a batch nothing of which was accepted none.
func TestIngestLogsAcceptedRunsInOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	srv, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	udp := flowAt("10.0.0.1", "dns", 2*time.Minute, 1)
	udp.Proto = netflow.UDP
	batch := []netflow.Record{
		flowAt("10.0.0.1", "a", 0, 1),
		flowAt("10.0.0.1", "b", time.Minute, 1),
		udp, // dropped (TCPOnly)
		flowAt("10.0.0.2", "c", 3*time.Minute, 1),
		flowAt("10.0.0.2", "10.0.0.2", 4*time.Minute, 1), // rejected: self-flow
		flowAt("10.0.0.3", "d", 5*time.Minute, 1),
		flowAt("10.0.0.1", "e", time.Hour, 1), // closes window 0
		flowAt("10.0.0.1", "f", time.Hour+time.Minute, 1),
		flowAt("10.0.0.3", "late", 6*time.Minute, 1), // rejected: its window is gone
		flowAt("10.0.0.2", "g", time.Hour+2*time.Minute, 1),
	}
	res := srv.IngestRecords(batch)
	if res.Accepted != 7 || res.Dropped != 1 || res.Rejected != 2 || res.WindowsClosed != 1 {
		t.Fatalf("ingest result %+v, want 7 accepted, 1 dropped, 2 rejected, 1 window closed", res)
	}
	snap := srv.obs.registry.Snapshot()
	if got := snap["wal_appended_records"]; got != 3 {
		t.Fatalf("wal_appended_records = %d, want 3 (the open window's)", got)
	}
	commits := srv.obs.registry.Histogram("wal_fsync_seconds", "")
	if got := commits.Count(); got != 2 {
		t.Fatalf("%d WAL commits, want 2 (generation change, batch end)", got)
	}
	mustIngest(t, srv, []netflow.Record{flowAt("10.0.0.3", "h", time.Hour+3*time.Minute, 1)})
	if got := commits.Count(); got != 3 {
		t.Fatalf("%d WAL commits after a plain batch, want 3", got)
	}
	if res := srv.IngestRecords([]netflow.Record{udp}); res.Dropped != 1 || commits.Count() != 3 {
		t.Fatalf("a batch with nothing accepted: %+v, %d WAL commits, want 1 dropped and still 3", res, commits.Count())
	}
	srv.Abort()
	// The checkpoint emptied the log of window 0; what is left is the
	// open window's records.
	want := []string{"10.0.0.1>e", "10.0.0.1>f", "10.0.0.2>g", "10.0.0.3>h"}
	if got := walRecordLabels(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
}

// TestReplayTailLeavesOutUnacceptedRecords: when a replay closes
// windows, the open window's tail is rewritten into the reset log from
// the replayed frames themselves — minus the ones this pipeline did not
// accept (here: UDP records logged by a previous life that took every
// protocol).
func TestReplayTailLeavesOutUnacceptedRecords(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := filepath.Join(t.TempDir(), "snap")
	anyProto := crashConfig(dir)
	anyProto.Stream.TCPOnly = false
	udp := func(dst string, off time.Duration) netflow.Record {
		r := flowAt("10.0.0.1", dst, off, 1)
		r.Proto = netflow.UDP
		return r
	}

	fault.Set("store.save.manifest", fault.FailAfter(0, errors.New("disk full")))
	srv1, err := New(anyProto)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, srv1, []netflow.Record{
		flowAt("10.0.0.1", "a", 0, 1),
		udp("dns-0", time.Minute),
		flowAt("10.0.0.2", "b", time.Hour, 1), // closes window 0; the save fails
		udp("dns-1", time.Hour+time.Minute),
		flowAt("10.0.0.2", "c", time.Hour+2*time.Minute, 1),
		udp("dns-2", time.Hour+3*time.Minute),
	})
	srv1.Abort()
	fault.Reset()

	srv2, err := New(crashConfig(dir)) // TCPOnly
	if err != nil {
		t.Fatal(err)
	}
	if rec := srv2.Recovery(); rec.WALRecords != 6 || rec.WALWindowsClosed != 1 || rec.WALRejected != 0 {
		t.Fatalf("replay = %+v, want 6 records, 1 window closed, 0 rejected", rec)
	}
	srv2.Abort()
	want := []string{"10.0.0.2>b", "10.0.0.2>c"}
	if got := walRecordLabels(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten tail holds %v, want %v", got, want)
	}
}

// subMillisecondFlows is two records a window apart by the clock JSON
// ingest keeps (nanoseconds) and less than a window apart by the one
// the WAL keeps (milliseconds): the first 0.9 ms past a millisecond
// boundary, the second a window and 0.6 ms past it. The first record
// sets the origin (the config names none).
func subMillisecondFlows(cfg *Config) []netflow.Record {
	cfg.Stream.Origin = time.Time{}
	return []netflow.Record{
		flowAt("10.0.0.1", "e1", 900*time.Microsecond, 3),
		flowAt("10.0.0.1", "e2", cfg.Stream.WindowSize+600*time.Microsecond, 1),
	}
}

// TestCrashKeepsSubMillisecondRecordsInTheirWindow: the pipeline sees a
// record's start as the log will hold it, so the window a record falls
// in live is the window it falls in after a crash and replay.
func TestCrashKeepsSubMillisecondRecordsInTheirWindow(t *testing.T) {
	cfg := crashConfig(filepath.Join(t.TempDir(), "snap"))
	flows := subMillisecondFlows(&cfg)
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := mustIngest(t, srv1, flows)
	srv1.Abort()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Abort()
	rec := srv2.Recovery()
	if rec.WALRejected != 0 {
		t.Fatalf("WAL replay = %+v, want 0 rejected", rec)
	}
	// Windows closed live are in the snapshot; the replay closes none.
	closed, replayed := len(srv2.Store().Windows()), srv2.pipeline.CurrentWindow()
	if live.CurrentWindow != replayed || live.WindowsClosed != closed || rec.WALWindowsClosed != 0 {
		t.Fatalf("live: window %d after closing %d; recovered: window %d, %d archived, %d closed by the replay",
			live.CurrentWindow, live.WindowsClosed, replayed, closed, rec.WALWindowsClosed)
	}
	o1, _ := srv1.PipelineOrigin()
	if o2, _ := srv2.PipelineOrigin(); !o1.Equal(o2) {
		t.Fatalf("origin %v live, %v replayed", o1, o2)
	}
}
