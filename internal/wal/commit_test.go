package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/obs"
)

// TestCommitIsTheOnlySync: every sync the log makes is a commit's and
// passes the histogram — the one after Open wrote a header, the one that
// makes a Reset's truncation durable with the prologue after it, the one
// a Rotate owes a file still dirty before sealing it and the one that
// starts the next generation — and a commit with nothing to do makes none.
func TestCommitIsTheOnlySync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	syncs := obs.NewRegistry().Histogram("wal_fsync_seconds", "")
	w.Instrument(syncs, nil)
	step := func(what string, want uint64, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := syncs.Count(); got != want {
			t.Fatalf("after %s: %d syncs, want %d", what, got, want)
		}
	}
	recs := testRecords(4)
	step("the first commit (header and frames)", 1, func() error { return w.Append(recs[:2]) })
	step("an empty commit", 1, w.Commit)
	step("staging", 1, func() error { w.StageRecords(recs[2:]); w.StageBatch(BatchEntry{ID: "b"}); return nil })
	step("records and marker", 2, w.Commit)
	step("Reset", 2, w.Reset)
	step("the commit after Reset, nothing staged", 3, w.Commit)
	step("an empty commit", 3, w.Commit)
	step("Reset", 3, w.Reset)
	step("Rotate of a dirty log: the truncation's sync, before it is sealed", 4, func() error { return w.Rotate(path + ".g0") })
	w.StageOrigin(recs[0].Start, time.Hour)
	step("the new generation's prologue", 5, w.Commit)
	step("Rotate of a clean log", 5, func() error { return w.Rotate(path + ".g1") })
}

// TestDurableSizeAdvancesByWholeCommits looks at the log where a follower
// polling between the steps of a commit would: before its write, and
// between its write and its sync. What ReadDurable serves there is the
// log as of the last commit — never a batch's records without its
// marker — and after the commit all of it.
func TestDurableSizeAdvancesByWholeCommits(t *testing.T) {
	t.Cleanup(fault.Reset)
	path := filepath.Join(t.TempDir(), "ship.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	if err := w.Append(testRecords(2)); err != nil {
		t.Fatal(err)
	}
	before := w.DurableSize()
	// The hooks run inside the commit, under the log's lock: they read
	// what DurableSize and ReadDurable would, without taking it again.
	for _, point := range []string{"wal.write", "wal.sync"} {
		fault.Set(point, func() error {
			if w.good != before {
				t.Errorf("at %s the durable size is %d, want %d as before the commit", point, w.good, before)
			}
			return nil
		})
	}
	w.StageRecords(testRecords(3))
	w.StageBatch(BatchEntry{ID: "b-1"})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	frames := tailFrom(t, w, before, 1<<20)
	if len(frames) != 4 || frames[3].Kind != FrameBatch {
		t.Fatalf("the commit shipped %d frames, want 3 records and their marker", len(frames))
	}
}

// TestTornCommitNeverLeavesAMarkerWithoutItsRecords tears one committed
// batch — its records, then its marker — at every byte: recovery keeps a
// frame-aligned prefix of it, so whenever the marker survives every
// record before it does.
func TestTornCommitNeverLeavesAMarkerWithoutItsRecords(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(5)
	w, _ := mustOpen(t, full)
	w.StageOrigin(recs[0].Start, time.Hour)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	start := w.DurableSize()
	w.StageRecords(recs)
	w.StageBatch(BatchEntry{ID: "b-1", Result: json.RawMessage(`{"accepted":5}`)})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(start); cut <= len(blob); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, rep := mustOpen(t, path)
		w.Close()
		got := records(rep)
		for i, r := range got {
			if r != recs[i] {
				t.Fatalf("cut %d: record %d is not a prefix match", cut, i)
			}
		}
		marker := rep.Frames[len(rep.Frames)-1].Kind == FrameBatch
		if marker != (cut == len(blob)) || (marker && len(got) != len(recs)) {
			t.Fatalf("cut %d of %d: marker recovered: %v, beside %d of %d records", cut, len(blob), marker, len(got), len(recs))
		}
	}
}

// TestGenerationChangeRefusesStagedFrames: a generation ends between
// commits. Reset and Rotate with frames staged touch nothing and say so;
// the frames are still there for the commit that was missing, and the
// generation change after it goes through.
func TestGenerationChangeRefusesStagedFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	recs := testRecords(4)
	if err := w.Append(recs[:2]); err != nil {
		t.Fatal(err)
	}
	w.StageRecords(recs[2:])
	if err := w.Reset(); err == nil {
		t.Fatal("Reset with frames staged went through")
	}
	if err := w.Rotate(path + ".sealed"); err == nil {
		t.Fatal("Rotate with frames staged went through")
	}
	if _, err := os.Stat(path + ".sealed"); !os.IsNotExist(err) {
		t.Fatalf("the refused Rotate left a sealed file (%v)", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if frames := tailFrom(t, w, HeaderLen, 1<<20); len(frames) != 4 || frames[3].Record != recs[3] {
		t.Fatalf("the log holds %d frames, want the two committed before and the two staged across the refusals", len(frames))
	}
	if err := w.Rotate(path + ".sealed"); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
}

// TestOneCommitSealsTheSameBytes: a generation whose frames went in with
// one commit seals to the file, byte for byte, that committing each piece
// on its own — the way the log was written before commits — seals.
func TestOneCommitSealsTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(6)
	seal := func(name string, piecewise bool) []byte {
		path := filepath.Join(dir, name)
		w, _ := mustOpen(t, path)
		defer w.Close()
		commit := func() {
			if piecewise {
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.StageOrigin(recs[0].Start, time.Hour)
		commit()
		w.StageRecords(recs[:2])
		commit()
		w.StageRecords(recs[2:4], recs[4:])
		commit()
		w.StageBatch(BatchEntry{ID: "b-1"})
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.Rotate(path + ".sealed"); err != nil {
			t.Fatal(err)
		}
		if got := w.DurableSize(); got != HeaderLen {
			t.Fatalf("after Rotate the new generation's durable size is %d", got)
		}
		b, err := os.ReadFile(path + ".sealed")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	once, piecewise := seal("once.wal", false), seal("piecewise.wal", true)
	if !bytes.Equal(once, piecewise) {
		t.Fatalf("one commit sealed %d bytes, committing piece by piece %d: not the same file", len(once), len(piecewise))
	}
	if frames, _, err := ScanFrames(once[HeaderLen:]); err != nil || len(frames) != 8 || frames[7].Kind != FrameBatch {
		t.Fatalf("sealed generation: %d frames (%v), want origin, 6 records, marker", len(frames), err)
	}
}

// TestCreateDirectorySyncFailpoint: the open-for-append half that
// creates a log syncs the directory that names it, and only then — a
// log that exists, empty or not, is opened without a directory sync.
// When that sync fails the error is Open's and the new file is gone, so
// the next Open creates it, and syncs, anew.
func TestCreateDirectorySyncFailpoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	path := filepath.Join(t.TempDir(), "new.wal")
	boom := errors.New("injected directory sync failure")
	fault.Set("wal.create.dirsync", func() error { return boom })
	if _, _, err := Open(path); !errors.Is(err, boom) {
		t.Fatalf("Open with a failing directory sync returned %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed creation left the log behind: %v", err)
	}
	syncs := 0
	fault.Set("wal.create.dirsync", func() error { syncs++; return nil })
	w, _ := mustOpen(t, path)
	if err := w.Append(testRecords(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.WriteFile(path+".empty", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".empty"} {
		w, _ := mustOpen(t, p)
		w.Close()
	}
	if syncs != 1 {
		t.Fatalf("%d directory syncs over a creation and two opens of existing logs; want 1", syncs)
	}
}

// TestScanWritesNothing: the read-and-scan half leaves the disk as it
// found it — a missing log stays missing, a torn tail stays — and
// reports what the open-for-append half then does: the same replay as
// Open, the tail cut only there.
func TestScanWritesNothing(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.wal")
	sc, err := Scan(missing)
	if err != nil || len(sc.Replay.Frames) != 0 || sc.Replay.TornBytes != 0 {
		t.Fatalf("Scan of a missing log: %+v, %v", sc.Replay, err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Scan created the log: %v", err)
	}

	path := filepath.Join(dir, "torn.wal")
	w, _ := mustOpen(t, path)
	if err := w.Append(testRecords(3)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err = Scan(path)
	if err != nil || len(records(sc.Replay)) != 2 || sc.Replay.TornBytes == 0 {
		t.Fatalf("Scan of a torn log: %d records, %d torn bytes, %v", len(records(sc.Replay)), sc.Replay.TornBytes, err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("Scan changed the log (%v)", err)
	}
	w, err = sc.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if size, err := w.Size(); err != nil || size != int64(len(torn))-sc.Replay.TornBytes {
		t.Fatalf("open-for-append left %d bytes (%v); want the torn tail cut", size, err)
	}
}

// TestOpenRefusesALogChangedSinceScan: what the open-for-append half
// truncates to and seeks past it takes from the scan, so a file that
// changed size in between is refused, and left as it is.
func TestOpenRefusesALogChangedSinceScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "moving.wal")
	w, _ := mustOpen(t, path)
	w.Close()
	sc, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _ = mustOpen(t, path)
	if err := w.Append(testRecords(1)); err != nil {
		t.Fatal(err)
	}
	size, _ := w.Size()
	w.Close()
	if _, err := sc.Open(); err == nil {
		t.Fatal("Open took a log that grew after its scan")
	}
	if info, err := os.Stat(path); err != nil || info.Size() != size {
		t.Fatalf("refused open changed the log: %v", err)
	}

	missing := filepath.Join(t.TempDir(), "raced.wal")
	sc, err = Scan(missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(missing, header, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Open(); err == nil {
		t.Fatal("Open created over a log that appeared after its scan")
	}
	if got, err := os.ReadFile(missing); err != nil || !bytes.Equal(got, header) {
		t.Fatalf("refused open changed the log: %q, %v", got, err)
	}
}

// TestRotateDirectorySyncFailure: Rotate renames the live log aside and
// creates the next one, and must sync the directory that names them
// before anything is acknowledged into the new file. When that sync
// fails the error is Rotate's, and the log is left broken — every commit
// fails, loudly — rather than quietly taking batches a power loss could
// take back; a restart finds the sealed generation whole and a usable
// live log. What a power loss does to an unsynced directory (the old
// file still under the live name, the new one gone) cannot be
// reproduced here: the test holds the error path, not the disk's.
func TestRotateDirectorySyncFailure(t *testing.T) {
	t.Cleanup(fault.Reset)
	path := filepath.Join(t.TempDir(), "gen.wal")
	w, _ := mustOpen(t, path)
	recs := testRecords(3)
	if err := w.Append(recs[:2]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected directory sync failure")
	fault.Set("wal.rotate.dirsync", func() error { return boom })
	if err := w.Rotate(path + ".g00000000"); !errors.Is(err, boom) {
		t.Fatalf("Rotate with a failing directory sync returned %v", err)
	}
	fault.Reset()
	if err := w.Append(recs[2:]); err == nil {
		t.Fatal("the log took a commit after a rotation it could not make durable")
	}
	w.Close()

	_, sealed, err := Open(path + ".g00000000")
	if err != nil || len(records(sealed)) != 2 {
		t.Fatalf("sealed generation: %d records, err %v; want the 2 committed before the rotation", len(records(sealed)), err)
	}
	w2, rep := mustOpen(t, path)
	defer w2.Close()
	if len(rep.Frames) != 0 || rep.TornBytes != 0 {
		t.Fatalf("live log after restart: %d frames, %d torn bytes; want an empty one", len(rep.Frames), rep.TornBytes)
	}
	if err := w2.Append(recs[2:]); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}
