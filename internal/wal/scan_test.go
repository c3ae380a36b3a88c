package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// mixedLog writes a log holding every frame kind, interleaved the way
// a serving node writes them, and returns its bytes.
func mixedLog(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mixed.wal")
	recs := testRecords(5)
	w, _ := mustOpen(t, path)
	// One commit the way a node makes them: prologue, records, a watch
	// add, more records, the batch's marker — then a second commit.
	w.StageOrigin(recs[0].Start, time.Hour)
	w.StageRecords(recs[:2])
	w.StageWatches([]WatchEntry{{Individual: "case-1", Window: 3, Nodes: []string{"a", "b"}, Weights: []float64{1, 2.5}}})
	w.StageRecords(recs[2:])
	w.StageBatch(BatchEntry{ID: "b-1", Result: json.RawMessage(`{"accepted":5}`)})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkOpenMatchesScan opens a file holding data and holds recovery to
// the shipping-side scanner: the same frames, the remainder counted as
// torn and cut off the file.
func checkOpenMatchesScan(t *testing.T, what string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Open(path)
	if len(data) > 0 && !bytes.HasPrefix(data, header) {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: damaged header opened with err = %v", what, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer w.Close()
	var frames []Frame
	var consumed int64
	if len(data) > 0 {
		// A bad frame and an incomplete one mean the same to recovery:
		// the log ends before it.
		frames, consumed, _ = ScanFrames(data[HeaderLen:])
	}
	if !reflect.DeepEqual(rep.Frames, frames) {
		t.Fatalf("%s: Open replayed %d frames, ScanFrames %d, or they differ:\n%+v\n%+v", what, len(rep.Frames), len(frames), rep.Frames, frames)
	}
	wantTorn := int64(0)
	if len(data) > 0 {
		wantTorn = int64(len(data)) - HeaderLen - consumed
	}
	if rep.TornBytes != wantTorn {
		t.Fatalf("%s: TornBytes = %d, want %d", what, rep.TornBytes, wantTorn)
	}
	var origin time.Time
	var window time.Duration
	for _, fr := range frames {
		if fr.Kind == FrameOrigin {
			origin, window = fr.Origin, fr.Window
		}
	}
	if !rep.Origin.Equal(origin) || rep.Window != window {
		t.Fatalf("%s: replay origin (%v, %v), last origin frame (%v, %v)", what, rep.Origin, rep.Window, origin, window)
	}
	if size, err := w.Size(); err != nil || size != HeaderLen+consumed {
		t.Fatalf("%s: file is %d bytes after recovery (err %v), want %d", what, size, err, HeaderLen+consumed)
	}
}

// TestOpenMatchesScanFrames: recovery and replication read a log with
// one scanner. For every truncation point and every single flipped
// byte of a log holding all four frame kinds, what Open replays is
// what ScanFrames decodes from the same bytes, and TornBytes is the
// rest.
func TestOpenMatchesScanFrames(t *testing.T) {
	data := mixedLog(t)
	for cut := 0; cut <= len(data); cut++ {
		checkOpenMatchesScan(t, fmt.Sprint("cut ", cut), data[:cut])
	}
	for i := range data {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x40
		checkOpenMatchesScan(t, fmt.Sprint("flip ", i), flipped)
	}
}

// TestRecordFramePayloadMustEndWithItsRecord pins what a record frame
// may hold: exactly one record's encoding. The writer never produced
// anything else, and a checksummed payload with bytes after its record
// is a writer bug like any other undecodable payload — ScanFrames calls
// it a bad frame and recovery ends the log before it.
func TestRecordFramePayloadMustEndWithItsRecord(t *testing.T) {
	data := mixedLog(t)
	frames, consumed, err := ScanFrames(data[HeaderLen:])
	if err != nil || int(consumed) != len(data)-int(HeaderLen) || frames[1].Kind != FrameRecord {
		t.Fatalf("clean log scanned to %d frames, %d bytes, err %v", len(frames), consumed, err)
	}
	// Frame 0 is the origin (16-byte payload); frame 1 the first record.
	at := int(HeaderLen) + frameOverhead + 16
	plen := int(binary.LittleEndian.Uint32(data[at+1 : at+5]))
	payload := append(append([]byte(nil), data[at+frameOverhead:at+frameOverhead+plen]...), 0)
	var padded []byte
	padded = append(padded, data[:at]...)
	padded = append(padded, kindRecord)
	padded = binary.LittleEndian.AppendUint32(padded, uint32(len(payload)))
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(payload))
	padded = append(padded, payload...)
	padded = append(padded, data[at+frameOverhead+plen:]...)

	frames, consumed, err = ScanFrames(padded[HeaderLen:])
	if !errors.Is(err, ErrBadFrame) || len(frames) != 1 || consumed != int64(frameOverhead+16) {
		t.Fatalf("padded record frame: %d frames, %d bytes consumed, err %v; want the origin frame alone and ErrBadFrame", len(frames), consumed, err)
	}
	checkOpenMatchesScan(t, "padded record frame", padded)
}
