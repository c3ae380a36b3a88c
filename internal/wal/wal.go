// Package wal implements the write-ahead log behind sigserverd's
// ingest path. The §VI streaming pipeline holds the still-open
// window's sketch state only in memory; the WAL makes that window
// crash-safe by appending every accepted flow record (in the netflow
// per-record binary encoding, wrapped in a CRC32 frame) and fsyncing
// once per ingest batch. After a kill -9 the server replays the log
// through a fresh pipeline and loses at most the last unsynced batch.
//
// The log is a redo log of accepted records, not a classical
// undo/redo WAL: entries are written after the pipeline accepts them,
// so a replay re-accepts every entry and never re-rejects. It is
// truncated (Reset) whenever the archived windows it covers have been
// committed to a durable snapshot — see internal/server's checkpoint
// logic — and the pipeline's window origin is re-recorded after every
// truncation so window indices stay aligned across restarts even when
// the log is empty.
//
// On-disk format, all integers little-endian:
//
//	header:  8 bytes "GSWALv1\n"
//	frame:   u8 kind, u32 payloadLen, u32 crc32(payload), payload
//	kinds:   1 = flow record (netflow per-record binary encoding)
//	         2 = origin     (i64 originUnixMs, i64 windowMs)
//	         3 = watch      (JSON WatchEntry: a watchlist mutation)
//	         4 = batch      (JSON BatchEntry: an applied ingest batch ID
//	                         plus its recorded result, for dedup)
//
// Recovery scans frames until the first torn or corrupt one and
// truncates the file there: a partially flushed tail is expected after
// a crash and silently (but countedly) dropped, because once framing
// is lost nothing after it can be trusted.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
)

var header = []byte("GSWALv1\n")

const (
	kindRecord = 1
	kindOrigin = 2
	kindWatch  = 3
	kindBatch  = 4

	frameOverhead = 1 + 4 + 4 // kind + len + crc
	// maxPayload rejects absurd frame lengths during recovery so a
	// corrupt length field cannot trigger a huge allocation.
	maxPayload = 1 << 20
)

// ErrCorrupt marks a log whose header is unreadable — the file is not
// a WAL at all (or its first bytes were destroyed). Callers should
// quarantine the file and start fresh; a torn tail is NOT this error,
// it is repaired in place by Open.
var ErrCorrupt = errors.New("wal: corrupt log header")

// WatchEntry is one watchlist mutation in wire form: a signature
// (labels + weights, the cross-process identity) archived under an
// individual key at a window index. Logged so recovery rebuilds the
// (otherwise memory-only) watchlist and so followers screen the same
// entries the primary does.
type WatchEntry struct {
	Individual string    `json:"individual"`
	Window     int       `json:"window"`
	Nodes      []string  `json:"nodes"`
	Weights    []float64 `json:"weights"`
}

// BatchEntry marks an applied ingest batch: the dedup ID plus the
// recorded result (opaque JSON to this package). A follower that
// replays it registers the ID in its own dedup set, so a client retry
// after the follower's promotion returns the original accounting
// instead of double-applying — exactly-once across failover.
type BatchEntry struct {
	ID     string          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Replay is what Open recovered from an existing log.
type Replay struct {
	// Frames holds every recovered frame in append order — the replay
	// sequence (record/watch/batch interleaving matters: a watch entry
	// screens only windows that close after it).
	Frames []Frame
	// Origin and Window are the pipeline alignment from the last origin
	// frame; Origin.IsZero() means none was recorded.
	Origin time.Time
	Window time.Duration
	// TornBytes counts bytes dropped from a torn or corrupt tail.
	TornBytes int64
}

// WAL is an append-only, CRC-framed flow record log. Methods are
// goroutine-safe.
//
// Append is all-or-nothing: a failed write or fsync rolls the file back
// to the last durably acked offset, so a transient failure can never
// leave a partial frame in the middle of the log. Without the rollback,
// later (successful) appends would land after the torn region and
// recovery — which truncates at the first bad frame — would silently
// drop them, losing records the caller was told were durable.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	buf  []byte // frames of the append in flight, reused across appends
	good int64  // offset after the last durably acked frame
	// broken flips when a failed flush could not be rolled back: the
	// tail may hold a partial frame, so further appends would be
	// silently unrecoverable. Every later Append fails fast instead;
	// a successful Reset restores a consistent (empty) log.
	broken bool

	// Optional instrumentation (nil handles no-op; see internal/obs).
	syncHist   *obs.Histogram // write+fsync latency per flushed batch
	bytesTotal *obs.Counter   // framed bytes appended
}

// Instrument attaches observability handles: syncHist observes the
// write+fsync latency of every flushed batch (seconds), bytesTotal
// counts framed bytes appended. Either may be nil. Call before sharing
// the WAL across goroutines.
func (w *WAL) Instrument(syncHist *obs.Histogram, bytesTotal *obs.Counter) {
	w.syncHist = syncHist
	w.bytesTotal = bytesTotal
}

// Open opens (creating if absent) the log at path, replays its frames,
// repairs a torn tail by truncating it, and leaves the file positioned
// for appends. A destroyed header surfaces as ErrCorrupt — quarantine
// with Quarantine and Open again.
func Open(path string) (*WAL, Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{f: f, path: path}
	rep, err := w.recover()
	if err != nil {
		f.Close()
		return nil, Replay{}, err
	}
	return w, rep, nil
}

// recover validates the header (writing one into an empty file), reads
// the log once, scans it with ScanFrames — the scanner followers use —
// and truncates at the first frame that is incomplete or bad: to
// recovery both mean the log ends there.
func (w *WAL) recover() (Replay, error) {
	info, err := w.f.Stat()
	if err != nil {
		return Replay{}, fmt.Errorf("wal: %w", err)
	}
	if info.Size() == 0 {
		if _, err := w.f.Write(header); err != nil {
			return Replay{}, fmt.Errorf("wal: writing header: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return Replay{}, fmt.Errorf("wal: %w", err)
		}
		w.good = int64(len(header))
		return Replay{}, nil
	}
	data := make([]byte, info.Size())
	if _, err := w.f.ReadAt(data, 0); err != nil {
		return Replay{}, fmt.Errorf("wal: %w", err)
	}
	if !bytes.HasPrefix(data, header) {
		return Replay{}, fmt.Errorf("%w: %s", ErrCorrupt, w.path)
	}

	var rep Replay
	var consumed int64
	// A bad frame is where the log ends, whatever made it bad.
	rep.Frames, consumed, _ = ScanFrames(data[len(header):])
	for i := range rep.Frames {
		if fr := &rep.Frames[i]; fr.Kind == kindOrigin {
			rep.Origin, rep.Window = fr.Origin, fr.Window
		}
	}
	good := int64(len(header)) + consumed // offset past the last valid frame
	rep.TornBytes = info.Size() - good
	if rep.TornBytes > 0 {
		if err := w.f.Truncate(good); err != nil {
			return Replay{}, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return Replay{}, fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return Replay{}, fmt.Errorf("wal: %w", err)
	}
	w.good = good
	return rep, nil
}

// Path reports the log's file path.
func (w *WAL) Path() string { return w.path }

// Append frames and appends the records of every run, in order, then
// fsyncs — one write and one sync per call, so a crash loses at most
// the records of the call in flight. The runs let a caller log the
// stretches of a batch it accepted without copying them together.
// Appending no records is a no-op.
func (w *WAL) Append(runs ...[]netflow.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = w.buf[:0]
	n := 0
	for _, run := range runs {
		for i := range run {
			start := w.beginFrame(kindRecord)
			var err error
			if w.buf, err = netflow.AppendRecordBinary(w.buf, &run[i]); err != nil {
				return fmt.Errorf("wal: record %d: %w", n, err)
			}
			w.endFrame(start)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return w.flush()
}

// AppendOrigin records the pipeline's window alignment so replay after
// a restart computes the same window indices, and fsyncs.
func (w *WAL) AppendOrigin(origin time.Time, window time.Duration) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[:8], uint64(origin.UnixMilli()))
	binary.LittleEndian.PutUint64(payload[8:16], uint64(window.Milliseconds()))
	w.buf = w.buf[:0]
	w.frame(kindOrigin, payload[:])
	return w.flush()
}

// AppendWatches frames and appends watchlist mutations, one frame per
// entry, then fsyncs once for the whole batch — the server re-logs its
// full watch set after every checkpoint, so the batched flush keeps
// that O(1) fsyncs. Appending no entries is a no-op.
func (w *WAL) AppendWatches(entries []WatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = w.buf[:0]
	for i := range entries {
		payload, err := json.Marshal(&entries[i])
		if err != nil {
			return fmt.Errorf("wal: watch entry %d: %w", i, err)
		}
		w.frame(kindWatch, payload)
	}
	return w.flush()
}

// AppendBatch frames and appends one applied-batch marker and fsyncs.
func (w *WAL) AppendBatch(e BatchEntry) error {
	if e.ID == "" {
		return fmt.Errorf("wal: batch entry needs an ID")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	payload, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("wal: batch entry: %w", err)
	}
	w.buf = w.buf[:0]
	w.frame(kindBatch, payload)
	return w.flush()
}

// frame appends one frame for payload to the scratch buffer.
func (w *WAL) frame(kind byte, payload []byte) {
	start := w.beginFrame(kind)
	w.buf = append(w.buf, payload...)
	w.endFrame(start)
}

// beginFrame opens a frame in the scratch buffer and returns where it
// starts; the caller appends the payload to w.buf and calls endFrame,
// which fills in the length and checksum left blank here.
func (w *WAL) beginFrame(kind byte) int {
	start := len(w.buf)
	w.buf = append(w.buf, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	return start
}

func (w *WAL) endFrame(start int) {
	payload := w.buf[start+frameOverhead:]
	binary.LittleEndian.PutUint32(w.buf[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+5:], crc32.ChecksumIEEE(payload))
}

// flush writes the scratch buffer and syncs. On any failure it rolls
// the file back to the last acked offset so no partial frame survives
// in the middle of the log (see the WAL doc comment). Callers hold
// w.mu.
func (w *WAL) flush() error {
	if w.broken {
		return fmt.Errorf("wal: log broken by an earlier unrecoverable flush failure")
	}
	begin := time.Now()
	err := w.writeAndSync()
	if err != nil {
		// Roll back whatever partial frame the failed write left behind.
		if _, serr := w.f.Seek(w.good, io.SeekStart); serr == nil {
			serr = w.f.Truncate(w.good)
			if serr != nil {
				w.broken = true
				return fmt.Errorf("wal: rollback after failed flush: %v (original: %w)", serr, err)
			}
		} else {
			w.broken = true
			return fmt.Errorf("wal: rollback after failed flush: %v (original: %w)", serr, err)
		}
		return err
	}
	w.good += int64(len(w.buf))
	w.syncHist.ObserveSince(begin)
	w.bytesTotal.Add(int64(len(w.buf)))
	return nil
}

// writeAndSync performs the raw write+fsync of the scratch buffer.
func (w *WAL) writeAndSync() error {
	if err := fault.Inject("wal.write"); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := fault.Inject("wal.sync"); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Reset truncates the log back to its header — called after the
// windows it covered were committed to a durable snapshot. The caller
// should AppendOrigin again right after, so alignment survives even an
// empty log.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := fault.Inject("wal.reset"); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.f.Truncate(int64(len(header))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(header)), io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.good = int64(len(header))
	w.broken = false
	return nil
}

// Size reports the current log size in bytes.
func (w *WAL) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	info, err := w.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return info.Size(), nil
}

// Close closes the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Quarantine renames a log that failed to open aside (path.corrupt,
// path.corrupt.1, ...) and returns the new name, so the server can
// start a fresh log without destroying the evidence.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("wal: quarantine: %w", err)
	}
	return dst, nil
}
