package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tailFrom reads the durable log from offset from in chunks, exactly
// as a follower would, and returns the decoded frames.
func tailFrom(t *testing.T, w *WAL, from int64, chunk int) []Frame {
	t.Helper()
	var frames []Frame
	var pending []byte
	for {
		b, err := w.ReadDurable(from, chunk)
		if err != nil {
			t.Fatalf("ReadDurable(%d): %v", from, err)
		}
		if len(b) == 0 {
			if len(pending) != 0 {
				t.Fatalf("durable log ended mid-frame with %d pending bytes", len(pending))
			}
			return frames
		}
		from += int64(len(b))
		pending = append(pending, b...)
		fs, consumed, err := ScanFrames(pending)
		if err != nil {
			t.Fatalf("ScanFrames: %v", err)
		}
		frames = append(frames, fs...)
		pending = pending[consumed:]
	}
}

func TestShipScanFramesRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	recs := testRecords(7)
	origin := recs[0].Start
	w.StageOrigin(origin, time.Hour)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if got, size := w.DurableSize(), mustSize(t, w); got != size {
		t.Fatalf("DurableSize %d != file size %d after clean appends", got, size)
	}

	// Tail with a tiny chunk size to force incomplete-tail handling.
	frames := tailFrom(t, w, HeaderLen, 5)
	if len(frames) != 1+len(recs) {
		t.Fatalf("got %d frames, want %d", len(frames), 1+len(recs))
	}
	if frames[0].Kind != FrameOrigin || !frames[0].Origin.Equal(origin) || frames[0].Window != time.Hour {
		t.Fatalf("origin frame = %+v", frames[0])
	}
	for i, fr := range frames[1:] {
		if fr.Kind != FrameRecord {
			t.Fatalf("frame %d kind = %d", i+1, fr.Kind)
		}
		if !reflect.DeepEqual(fr.Record, recs[i]) {
			t.Fatalf("record %d roundtrip mismatch:\n got %+v\nwant %+v", i, fr.Record, recs[i])
		}
	}
}

func TestShipScanFramesBadFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	w, _ := mustOpen(t, path)
	if err := w.Append(testRecords(2)); err != nil {
		t.Fatal(err)
	}
	b, err := w.ReadDurable(HeaderLen, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Truncated tail: nil error, partial consumption.
	fs, consumed, err := ScanFrames(b[:len(b)-3])
	if err != nil || len(fs) != 1 || consumed >= int64(len(b)-3) {
		t.Fatalf("truncated tail: frames=%d consumed=%d err=%v", len(fs), consumed, err)
	}

	// Flipped payload byte with all bytes present: ErrBadFrame.
	c := append([]byte(nil), b...)
	c[len(c)-1] ^= 0xff
	if _, _, err := ScanFrames(c); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt payload: err=%v, want ErrBadFrame", err)
	}
	// Absurd length field: ErrBadFrame even with a short buffer.
	c = append([]byte(nil), b...)
	c[frameOverhead+int(c[1])+4] = 0xff // high byte of second frame's len
	if _, _, err := ScanFrames(c); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: err=%v, want ErrBadFrame", err)
	}
	// Unknown kind.
	c = append([]byte(nil), b...)
	c[0] = 99
	if _, _, err := ScanFrames(c); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown kind: err=%v, want ErrBadFrame", err)
	}
}

func TestShipReadDurableBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bounds.wal")
	w, _ := mustOpen(t, path)
	defer w.Close()
	if err := w.Append(testRecords(1)); err != nil {
		t.Fatal(err)
	}
	size := w.DurableSize()
	if b, err := w.ReadDurable(size, 64); err != nil || len(b) != 0 {
		t.Fatalf("read at high-water mark: %d bytes, err=%v", len(b), err)
	}
	if _, err := w.ReadDurable(size+1, 64); err == nil {
		t.Fatal("read past durable size succeeded")
	}
	if _, err := w.ReadDurable(0, 64); err == nil {
		t.Fatal("read inside header succeeded")
	}
	if _, err := w.ReadDurable(HeaderLen, 0); err == nil {
		t.Fatal("zero max succeeded")
	}
}

func TestShipRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.wal")
	sealed := path + ".g00000000"
	w, _ := mustOpen(t, path)
	defer w.Close()
	recs := testRecords(6)
	w.StageOrigin(recs[0].Start, time.Hour)
	if err := w.Append(recs[:4]); err != nil {
		t.Fatal(err)
	}
	preSize := w.DurableSize()

	if err := w.Rotate(sealed); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableSize(); got != HeaderLen {
		t.Fatalf("post-rotate durable size = %d, want %d", got, HeaderLen)
	}
	// The fresh generation accepts appends and records land after the
	// header only.
	w.StageOrigin(recs[0].Start, time.Hour)
	if err := w.Append(recs[4:]); err != nil {
		t.Fatal(err)
	}
	frames := tailFrom(t, w, HeaderLen, 1<<20)
	if len(frames) != 3 || frames[0].Kind != FrameOrigin ||
		!reflect.DeepEqual(frames[1].Record, recs[4]) || !reflect.DeepEqual(frames[2].Record, recs[5]) {
		t.Fatalf("fresh generation frames = %+v", frames)
	}

	// The sealed segment is a complete standalone WAL: header plus
	// exactly the pre-rotate durable bytes, scannable end to end.
	b, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) != preSize {
		t.Fatalf("sealed segment is %d bytes, want %d", len(b), preSize)
	}
	if !bytes.Equal(b[:HeaderLen], header) {
		t.Fatalf("sealed segment header = %q", b[:HeaderLen])
	}
	fs, consumed, err := ScanFrames(b[HeaderLen:])
	if err != nil || consumed != int64(len(b))-HeaderLen {
		t.Fatalf("sealed scan: consumed=%d err=%v", consumed, err)
	}
	if len(fs) != 5 {
		t.Fatalf("sealed segment has %d frames, want 5", len(fs))
	}
	for i := range recs[:4] {
		if !reflect.DeepEqual(fs[i+1].Record, recs[i]) {
			t.Fatalf("sealed record %d mismatch", i)
		}
	}
}

func mustSize(t *testing.T, w *WAL) int64 {
	t.Helper()
	n, err := w.Size()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScanFramesSizedExactly: ScanFrames sizes its list once, for the
// frames its bytes hold whole — every prefix of a log of each kind of
// frame decodes into a list as long as its capacity — and a frame that
// claims more than maxPayload ends the count.
func TestScanFramesSizedExactly(t *testing.T) {
	w, _ := mustOpen(t, filepath.Join(t.TempDir(), "sized.wal"))
	defer w.Close()
	w.StageOrigin(testRecords(1)[0].Start, time.Hour)
	w.StageWatches([]WatchEntry{{Individual: "i", Window: 1}})
	w.StageRecords(testRecords(5))
	w.StageBatch(BatchEntry{ID: "x"})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	b, err := w.ReadDurable(HeaderLen, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(b); cut++ {
		frames, _, err := ScanFrames(b[:cut])
		if err != nil || len(frames) != cap(frames) {
			t.Fatalf("%d of %d bytes: %d frames in a list of %d, %v", cut, len(b), len(frames), cap(frames), err)
		}
	}
	if n := countFrames(b, maxFramesAhead); n != 8 {
		t.Fatalf("counted %d frames, want 8", n)
	}
	bad := append(bytes.Clone(b), kindRecord)
	bad = binary.LittleEndian.AppendUint32(bad, maxPayload+1)
	bad = append(bad, make([]byte, 4+maxPayload+1)...)
	if n := countFrames(bad, maxFramesAhead); n != 8 {
		t.Fatalf("counted %d frames before one of %d bytes, want 8", n, maxPayload+1)
	}
	if n := countFrames(b, 3); n != 3 {
		t.Fatalf("counted %d frames up to 3", n)
	}
}
