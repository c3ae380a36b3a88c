// WAL shipping primitives: the pieces that let a follower tail a
// primary's log over the network and let the primary seal finished
// generations as immutable segment files.
//
// The unit of replication is the byte. A follower's cursor is a plain
// byte offset into one WAL generation, starting at HeaderLen; the
// primary serves only durably fsynced bytes (ReadDurable), and the
// follower reframes them with ScanFrames using exactly the torn-tail
// rules recovery uses: an incomplete frame at the end of a chunk just
// means "wait for more bytes", while a frame that is definitively bad
// with all its bytes present (oversized length, CRC mismatch,
// undecodable payload, unknown kind) is ErrBadFrame — on a follower
// that can only mean corruption in transit or a software bug, never a
// torn write, because torn bytes are never durable on the primary.
//
// Rotate seals the current log: it renames the file aside (the caller
// names it by generation) and starts a fresh header-only log at the
// original path. Sealed segments are immutable, so the primary can serve
// them to lagging followers without holding any lock.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphsig/internal/durable"
	"graphsig/internal/netflow"
)

// HeaderLen is the size of the WAL file header; every generation's
// first frame starts at this offset, so it is also the initial
// follower cursor.
const HeaderLen = int64(8)

// Exported frame kinds, mirroring the on-disk constants.
const (
	FrameRecord = byte(kindRecord)
	FrameOrigin = byte(kindOrigin)
	FrameWatch  = byte(kindWatch)
	FrameBatch  = byte(kindBatch)
)

// ErrBadFrame marks a frame that is definitively invalid even though
// all of its bytes are present. ScanFrames never returns it for a
// merely incomplete tail.
var ErrBadFrame = errors.New("wal: bad frame")

// Frame is one decoded WAL frame. Kind selects which fields are set:
// FrameRecord fills Record, FrameOrigin fills Origin and Window,
// FrameWatch sets Watch, FrameBatch sets Batch. Nearly every frame of
// a log is a record, so the rare kinds' payloads sit behind pointers
// and a record frame is little more than its record.
type Frame struct {
	Kind   byte
	Record netflow.Record
	Origin time.Time
	Window time.Duration
	Watch  *WatchEntry
	Batch  *BatchEntry
}

// maxFramesAhead bounds the frame list ScanFrames sizes before it has
// verified a frame — 11 MB of frames, more than the 38 000 records a
// 1 200-source window logs. Past the bound the list grows as it is
// filled.
const maxFramesAhead = 1 << 16

// ScanFrames decodes consecutive frames from b, which must start at a
// frame boundary (i.e. the bytes after HeaderLen, or after a previous
// consumed prefix). It returns the decoded frames and how many bytes
// they covered. consumed < len(b) with a nil error means the tail is
// an incomplete frame — keep the remainder and retry once more bytes
// arrive. A non-nil error wraps ErrBadFrame: the frame at offset
// consumed is invalid with all of its bytes present, so no later byte
// can be trusted.
func ScanFrames(b []byte) (frames []Frame, consumed int64, err error) {
	// Size the list of 170-byte frames once, for the frames b holds.
	frames = make([]Frame, 0, countFrames(b, maxFramesAhead))
	for {
		rest := b[consumed:]
		if len(rest) < frameOverhead {
			return frames, consumed, nil
		}
		kind := rest[0]
		plen := binary.LittleEndian.Uint32(rest[1:5])
		want := binary.LittleEndian.Uint32(rest[5:9])
		if plen > maxPayload {
			return frames, consumed, fmt.Errorf("%w: payload length %d exceeds max %d", ErrBadFrame, plen, maxPayload)
		}
		if len(rest) < frameOverhead+int(plen) {
			return frames, consumed, nil
		}
		payload := rest[frameOverhead : frameOverhead+int(plen)]
		if crc32.ChecksumIEEE(payload) != want {
			return frames, consumed, fmt.Errorf("%w: crc mismatch at offset %d", ErrBadFrame, consumed)
		}
		var fr Frame
		fr.Kind = kind
		switch kind {
		case kindRecord:
			rec, n, derr := netflow.DecodeRecordBinary(payload)
			if derr != nil {
				return frames, consumed, fmt.Errorf("%w: record payload undecodable: %v", ErrBadFrame, derr)
			}
			if n != len(payload) {
				return frames, consumed, fmt.Errorf("%w: record payload is %d bytes, its record %d", ErrBadFrame, len(payload), n)
			}
			fr.Record = rec
		case kindOrigin:
			if len(payload) != 16 {
				return frames, consumed, fmt.Errorf("%w: origin payload is %d bytes, want 16", ErrBadFrame, len(payload))
			}
			fr.Origin = time.UnixMilli(int64(binary.LittleEndian.Uint64(payload[:8]))).UTC()
			fr.Window = time.Duration(int64(binary.LittleEndian.Uint64(payload[8:16]))) * time.Millisecond
		case kindWatch:
			fr.Watch = new(WatchEntry)
			if derr := json.Unmarshal(payload, fr.Watch); derr != nil {
				return frames, consumed, fmt.Errorf("%w: watch payload undecodable: %v", ErrBadFrame, derr)
			}
		case kindBatch:
			fr.Batch = new(BatchEntry)
			if derr := json.Unmarshal(payload, fr.Batch); derr != nil || fr.Batch.ID == "" {
				return frames, consumed, fmt.Errorf("%w: batch payload undecodable", ErrBadFrame)
			}
		default:
			return frames, consumed, fmt.Errorf("%w: unknown frame kind %d", ErrBadFrame, kind)
		}
		frames = append(frames, fr)
		consumed += int64(frameOverhead) + int64(plen)
	}
}

// countFrames is how many frames b holds whole, up to most, counted
// over their headers alone until the first that is cut short or claims
// more than maxPayload: no more than ScanFrames decodes, and as many
// when every frame is good.
func countFrames(b []byte, most int) int {
	n := 0
	for n < most && len(b) >= frameOverhead {
		plen := binary.LittleEndian.Uint32(b[1:5])
		if plen > maxPayload || len(b) < frameOverhead+int(plen) {
			break
		}
		b = b[frameOverhead+int(plen):]
		n++
	}
	return n
}

// DurableSize reports the offset after the last committed frame — the
// replication high-water mark. It advances by whole commits, so a
// follower never holds a batch's records without its marker. Bytes past
// it may be a commit in flight and must never be shipped.
func (w *WAL) DurableSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.good
}

// ReadDurable reads up to max bytes of durable log starting at byte
// offset from (which must be within [HeaderLen, DurableSize]). It
// returns an empty slice when from is exactly the durable size. The
// read is served under the WAL lock so it can never observe a
// partially flushed or rolled-back frame.
func (w *WAL) ReadDurable(from int64, max int) ([]byte, error) {
	if max <= 0 {
		return nil, fmt.Errorf("wal: ReadDurable max %d", max)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if from < HeaderLen || from > w.good {
		return nil, fmt.Errorf("wal: ReadDurable offset %d outside [%d, %d]", from, HeaderLen, w.good)
	}
	n := w.good - from
	if n > int64(max) {
		n = int64(max)
	}
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, n)
	if _, err := w.f.ReadAt(buf, from); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return buf, nil
}

// Rotate seals the current log as the immutable file dst and starts a
// fresh, empty generation at the original path. Like Reset it refuses
// with frames staged: what the sealed generation is to hold — a
// follower rebuilds windows from its records — the caller has committed.
// An undurable tail is cut off first (only a broken log has one, and the
// cut heals it), and a file left dirty is synced, so a sealed segment
// holds exactly the committed bytes. The new file is not synced here: as
// after Reset, the caller stages the prologue and commits at once. The
// directory is, or a power loss could leave the old file under the live
// name and lose every batch acknowledged into the new one.
func (w *WAL) Rotate(dst string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.nothingStaged(); err != nil {
		return err
	}
	if w.broken {
		if err := w.rollback(); err != nil {
			return fmt.Errorf("wal: rotate truncate: %w", err)
		}
		w.broken, w.dirty = false, true
	}
	if err := w.commit(); err != nil { // the sync a dirty file is owed; none otherwise
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	if err := os.Rename(w.path, dst); err != nil {
		// The old file is closed but still in place; reopen it so the
		// WAL stays usable and the caller can retry.
		if f, oerr := os.OpenFile(w.path, os.O_RDWR, 0o644); oerr == nil {
			if _, serr := f.Seek(w.good, io.SeekStart); serr == nil {
				w.f = f
			} else {
				f.Close()
				w.broken = true
			}
		} else {
			w.broken = true
		}
		return fmt.Errorf("wal: rotate rename: %w", err)
	}
	// From here the generation is sealed whatever happens: a failure
	// leaves the log broken — every commit fails, loudly — until a
	// restart reopens the live path.
	w.broken = true
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate reopen: %w", err)
	}
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("wal: rotate header: %w", err)
	}
	if err := durable.SyncDir(filepath.Dir(w.path), "wal.rotate.dirsync"); err != nil {
		f.Close()
		return fmt.Errorf("wal: rotate directory sync: %w", err)
	}
	w.f = f
	w.good, w.dirty, w.broken = HeaderLen, true, false
	return nil
}
