package wal

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestWatchBatchReplayRoundtrip checks the watch/batch frame kinds:
// they must survive Close/Open with payloads intact and with their
// interleaving against record frames preserved in Replay.Frames —
// a watch entry screens only windows closing after it, so order is
// part of the contract.
func TestWatchBatchReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	recs := testRecords(4)
	w, _ := mustOpen(t, path)
	w.StageOrigin(recs[0].Start, time.Hour)
	if err := w.Append(recs[:2]); err != nil {
		t.Fatal(err)
	}
	watches := []WatchEntry{
		{Individual: "case-1", Window: 3, Nodes: []string{"a", "b"}, Weights: []float64{1, 2.5}},
		{Individual: "case-1", Window: 4, Nodes: []string{"c"}, Weights: []float64{0.25}},
	}
	w.StageWatches(watches)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[2:]); err != nil {
		t.Fatal(err)
	}
	batch := BatchEntry{ID: "b-1", Result: json.RawMessage(`{"accepted":2}`)}
	w.StageBatch(batch)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rep := mustOpen(t, path)
	defer w2.Close()
	if rep.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rep.TornBytes)
	}
	wantKinds := []byte{
		FrameOrigin, FrameRecord, FrameRecord,
		FrameWatch, FrameWatch,
		FrameRecord, FrameRecord, FrameBatch,
	}
	if len(rep.Frames) != len(wantKinds) {
		t.Fatalf("replayed %d frames, want %d", len(rep.Frames), len(wantKinds))
	}
	for i, fr := range rep.Frames {
		if fr.Kind != wantKinds[i] {
			t.Fatalf("frame %d kind %d, want %d", i, fr.Kind, wantKinds[i])
		}
	}
	for i, want := range watches {
		got := rep.Frames[3+i].Watch
		if got.Individual != want.Individual || got.Window != want.Window ||
			len(got.Nodes) != len(want.Nodes) || len(got.Weights) != len(want.Weights) {
			t.Fatalf("watch frame %d = %+v, want %+v", i, got, want)
		}
	}
	got := rep.Frames[7].Batch
	if got.ID != batch.ID || string(got.Result) != string(batch.Result) {
		t.Fatalf("batch frame = %+v, want %+v", got, batch)
	}
	// Records still extract as the FrameRecord subsequence.
	if len(records(rep)) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(records(rep)), len(recs))
	}
}

// TestAppendBatchRejectsEmptyID: an ID-less batch marker would replay
// as a no-op dedup entry; the writer must refuse it outright — and a
// frame that cannot be staged fails the commit it was staged for.
func TestAppendBatchRejectsEmptyID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	w.StageRecords(testRecords(1))
	w.StageBatch(BatchEntry{})
	if err := w.Commit(); err == nil {
		t.Fatal("Commit took a batch marker with an empty ID")
	}
	// A commit is all of its frames or none: the record went with it.
	if size := w.DurableSize(); size != HeaderLen {
		t.Fatalf("the refused commit left %d bytes in the log", size-HeaderLen)
	}
}

// TestScanFramesWatchBatch checks the shipping-side decoder on the new
// kinds, including the bad-frame contract: a structurally valid frame
// whose payload cannot decode is ErrBadFrame (corruption), not a torn
// tail.
func TestScanFramesWatchBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, _ := mustOpen(t, path)
	w.StageWatches([]WatchEntry{{Individual: "i", Window: 1}})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.StageBatch(BatchEntry{ID: "x"})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	size := w.DurableSize()
	data, err := w.ReadDurable(HeaderLen, int(size-HeaderLen))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	frames, consumed, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != int64(len(data)) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(data))
	}
	if len(frames) != 2 || frames[0].Kind != FrameWatch || frames[1].Kind != FrameBatch {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[0].Watch.Individual != "i" || frames[1].Batch.ID != "x" {
		t.Fatalf("payloads = %+v / %+v", frames[0].Watch, frames[1].Batch)
	}
}
