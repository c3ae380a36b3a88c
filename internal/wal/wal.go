// Package wal implements the write-ahead log behind sigserverd's
// ingest path. The §VI streaming pipeline holds the still-open
// window's sketch state only in memory; the WAL makes that window
// crash-safe by logging every accepted flow record (in the netflow
// per-record binary encoding, wrapped in a CRC32 frame). After a kill
// -9 the server replays the log through a fresh pipeline and loses at
// most the last uncommitted batch.
//
// The unit of durability is the commit. Frames of any kind are staged
// into one buffer (StageRecords, StageOrigin, StageWatches, StageBatch)
// and Commit writes and fsyncs whatever is staged, once: a batch's
// records and the marker that makes its retry idempotent reach the
// disk together or not at all, and so does a fresh generation's
// truncation with the prologue that follows it. The server commits
// exactly where it acknowledges.
//
// The log is a redo log of accepted records, not a classical
// undo/redo WAL: entries are written after the pipeline accepts them,
// so a replay re-accepts every entry and never re-rejects. It is
// truncated (Reset) or sealed and restarted (Rotate) whenever the
// archived windows it covers have been committed to a durable snapshot
// — see internal/server's checkpoint logic — and the pipeline's window
// origin is re-recorded at once, in the commit that makes the
// truncation durable, so window indices stay aligned across restarts
// even when the log holds no record.
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
// is lost nothing after it can be trusted. It is two halves, which Open
// runs one after the other: Scan reads and verifies and writes nothing,
// so a boot can run it beside other work and still leave the disk as it
// was when that work fails; Scanned.Open writes — the new file, its
// header, the cut — and positions the log for appends.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphsig/internal/durable"
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
// Commit is all-or-nothing: a failed write or fsync rolls the file back
// to the last durably committed offset and drops what was staged, so a
// transient failure can never leave a partial frame in the middle of
// the log. Without the rollback, later (successful) commits would land
// after the torn region and recovery — which truncates at the first bad
// frame — would silently drop them, losing records the caller was told
// were durable.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	buf  []byte // frames staged since the last commit, reused across commits
	// stageErr is the first frame that could not be encoded since the
	// last commit. A commit is all of its frames or none, so it poisons
	// the pending one: Commit drops what is staged and reports it.
	stageErr error
	good     int64 // offset after the last durably committed frame
	// dirty marks a file whose length changed with no sync since: Open
	// wrote the header or cut a torn tail, Reset truncated, Rotate started
	// a new file. The next Commit syncs even with nothing staged, so the
	// change and the frames that follow it become durable together.
	dirty bool
	// broken flips when a failed commit could not be rolled back: the
	// tail may hold a partial frame, so further commits would be
	// silently unrecoverable. Every later Commit fails fast instead;
	// a successful Reset restores a consistent (empty) log.
	broken bool

	// Optional instrumentation (nil handles no-op; see internal/obs).
	syncHist   *obs.Histogram // write+fsync latency per commit
	bytesTotal *obs.Counter   // framed bytes committed
}

// Instrument attaches observability handles: syncHist observes the
// write+fsync latency of every commit (seconds) — every sync the log
// makes passes through it —, bytesTotal counts framed bytes committed.
// Either may be nil. Call before sharing the WAL across goroutines.
func (w *WAL) Instrument(syncHist *obs.Histogram, bytesTotal *obs.Counter) {
	w.syncHist = syncHist
	w.bytesTotal = bytesTotal
}

// Open opens (creating if absent) the log at path, replays its frames,
// repairs a torn tail by truncating it, and leaves the file positioned
// for appends: Scan, then Scanned.Open. A destroyed header surfaces as
// ErrCorrupt — quarantine with Quarantine and Open again.
func Open(path string) (*WAL, Replay, error) {
	sc, err := Scan(path)
	if err != nil {
		return nil, Replay{}, err
	}
	w, err := sc.Open()
	if err != nil {
		return nil, Replay{}, err
	}
	return w, sc.Replay, nil
}

// Scanned is a log Scan read and verified: what it replays, and what
// its Open needs to append to it without reading it again.
type Scanned struct {
	Replay Replay
	path   string
	exists bool
	size   int64 // the file's size when it was read
}

// Scan reads the log at path once and verifies it, writing nothing: a
// missing file reads as an empty log, a destroyed header is ErrCorrupt,
// and the bytes after the header go to ScanFrames — the scanner
// followers use —, which ends the log at the first frame that is
// incomplete or bad: to recovery both mean the log ends there, and the
// rest is TornBytes. It touches nothing another goroutine uses, so a
// boot can run it beside the snapshot's load.
func Scan(path string) (Scanned, error) {
	sc := Scanned{path: path}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return sc, nil
	case err != nil:
		return Scanned{}, fmt.Errorf("wal: %w", err)
	}
	sc.exists, sc.size = true, int64(len(data))
	if len(data) == 0 {
		return sc, nil
	}
	if !bytes.HasPrefix(data, header) {
		return Scanned{}, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	rep := &sc.Replay
	var consumed int64
	// A bad frame is where the log ends, whatever made it bad.
	rep.Frames, consumed, _ = ScanFrames(data[len(header):])
	for i := range rep.Frames {
		if fr := &rep.Frames[i]; fr.Kind == kindOrigin {
			rep.Origin, rep.Window = fr.Origin, fr.Window
		}
	}
	rep.TornBytes = sc.size - HeaderLen - consumed
	return sc, nil
}

// Open opens the scanned log for appends: it creates the file — and
// syncs the directory that names it — if Scan found none, writes the
// header into an empty one, cuts a torn tail and seeks to the end. It
// refuses a file whose size changed since Scan read it. What it writes
// or cuts in the file it leaves to the first Commit to sync (dirty): a
// crash before that finds the same empty file or torn tail again.
//
// Failpoint: wal.create.dirsync, the directory sync after the creation.
// When that sync fails the new file is removed again, so the next Open
// creates it, and syncs, anew.
func (sc Scanned) Open() (*WAL, error) {
	flag := os.O_RDWR
	if !sc.exists {
		flag |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(sc.path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{f: f, path: sc.path, good: sc.size - sc.Replay.TornBytes}
	if err := w.openScanned(sc); err != nil {
		f.Close()
		if !sc.exists {
			_ = os.Remove(sc.path) // ours and half made: the next Open creates it, and syncs, anew
		}
		return nil, err
	}
	return w, nil
}

// openScanned is Open's work on the opened file.
func (w *WAL) openScanned(sc Scanned) error {
	info, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if info.Size() != sc.size {
		return fmt.Errorf("wal: %s is %d bytes, %d when it was scanned", sc.path, info.Size(), sc.size)
	}
	if sc.size == 0 {
		if _, err := w.f.Write(header); err != nil {
			return fmt.Errorf("wal: writing header: %w", err)
		}
		w.good, w.dirty = HeaderLen, true
	}
	if !sc.exists {
		if err := durable.SyncDir(filepath.Dir(sc.path), "wal.create.dirsync"); err != nil {
			return fmt.Errorf("wal: syncing the directory of a new log: %w", err)
		}
	}
	if sc.Replay.TornBytes > 0 {
		if err := w.f.Truncate(w.good); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		w.dirty = true
	}
	if _, err := w.f.Seek(w.good, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Path reports the log's file path.
func (w *WAL) Path() string { return w.path }

// Append stages the records of every run and commits: one write and one
// sync for them and for anything staged before, so a crash loses at most
// the frames of the call in flight.
func (w *WAL) Append(runs ...[]netflow.Record) error {
	w.StageRecords(runs...)
	return w.Commit()
}

// StageRecords frames the records of every run, in order, for the next
// Commit. The runs let a caller log the stretches of a batch it accepted
// without copying them together. Like every Stage method it reports
// nothing: a frame that cannot be encoded fails the Commit it was
// staged for.
func (w *WAL) StageRecords(runs ...[]netflow.Record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, run := range runs {
		for i := range run {
			start := w.beginFrame(kindRecord)
			var err error
			if w.buf, err = netflow.AppendRecordBinary(w.buf, &run[i]); err != nil {
				w.failStage(fmt.Errorf("wal: record %d: %w", n, err))
				return
			}
			w.endFrame(start)
			n++
		}
	}
}

// failStage records the first staging failure since the last commit.
func (w *WAL) failStage(err error) {
	if w.stageErr == nil {
		w.stageErr = err
	}
}

// StageOrigin stages the pipeline's window alignment, so replay after a
// restart computes the same window indices.
func (w *WAL) StageOrigin(origin time.Time, window time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[:8], uint64(origin.UnixMilli()))
	binary.LittleEndian.PutUint64(payload[8:16], uint64(window.Milliseconds()))
	w.frame(kindOrigin, payload[:])
}

// StageWatches stages watchlist mutations, one frame per entry — the
// server re-logs its full watch set into every fresh generation, and
// the one commit keeps that O(1) fsyncs.
func (w *WAL) StageWatches(entries []WatchEntry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range entries {
		payload, err := json.Marshal(&entries[i])
		if err != nil {
			w.failStage(fmt.Errorf("wal: watch entry %d: %w", i, err))
			return
		}
		w.frame(kindWatch, payload)
	}
}

// StageBatch stages one applied-batch marker. Staged after the batch's
// records and committed with them, it is never durable without them.
func (w *WAL) StageBatch(e BatchEntry) {
	payload, err := json.Marshal(&e)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case e.ID == "":
		w.failStage(fmt.Errorf("wal: batch entry needs an ID"))
	case err != nil:
		w.failStage(fmt.Errorf("wal: batch entry: %w", err))
	default:
		w.frame(kindBatch, payload)
	}
}

// frame stages one frame for payload.
func (w *WAL) frame(kind byte, payload []byte) {
	start := w.beginFrame(kind)
	w.buf = append(w.buf, payload...)
	w.endFrame(start)
}

// beginFrame opens a frame in the staging buffer and returns where it
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

// Commit makes everything staged durable with one write and one fsync —
// the log's only sync. With nothing staged it still syncs a file that
// Open, Reset or Rotate left dirty, and is otherwise a no-op. On any
// failure — a frame that could not be staged included — nothing of the
// commit survives: the file is rolled back to the last committed offset
// and the staged frames are dropped (see the WAL doc comment).
func (w *WAL) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commit()
}

// commit is Commit for callers that hold w.mu.
func (w *WAL) commit() error {
	staged, stageErr := w.buf, w.stageErr
	w.buf, w.stageErr = w.buf[:0], nil
	if w.broken {
		return fmt.Errorf("wal: log broken by an earlier unrecoverable commit failure")
	}
	if stageErr != nil {
		return stageErr
	}
	if len(staged) == 0 && !w.dirty {
		return nil
	}
	begin := time.Now()
	if err := w.writeAndSync(staged); err != nil {
		// Roll back whatever partial frame the failed write left behind.
		if serr := w.rollback(); serr != nil {
			w.broken = true
			return fmt.Errorf("wal: rollback after failed commit: %v (original: %w)", serr, err)
		}
		return err
	}
	w.good += int64(len(staged))
	w.dirty = false
	w.syncHist.ObserveSince(begin)
	w.bytesTotal.Add(int64(len(staged)))
	return nil
}

// rollback cuts the file back to the last committed offset and
// positions it there.
func (w *WAL) rollback() error {
	if _, err := w.f.Seek(w.good, io.SeekStart); err != nil {
		return err
	}
	return w.f.Truncate(w.good)
}

// writeAndSync performs the raw write+fsync of the staged frames.
func (w *WAL) writeAndSync(staged []byte) error {
	if err := fault.Inject("wal.write"); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := w.f.Write(staged); err != nil {
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

// Reset truncates the log back to its header — called after the windows
// it covered were committed to a durable snapshot. It does not sync: the
// caller stages the new generation's prologue (the origin, so alignment
// survives even a log with no record) and commits at once, which makes
// the truncation and the prologue durable together. A generation ends
// between commits: with frames staged Reset refuses, rather than guess
// which side of the truncation they were meant for.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.nothingStaged(); err != nil {
		return err
	}
	if err := fault.Inject("wal.reset"); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.f.Truncate(HeaderLen); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := w.f.Seek(HeaderLen, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.good, w.dirty, w.broken = HeaderLen, true, false
	return nil
}

// nothingStaged is the precondition of a generation change.
func (w *WAL) nothingStaged() error {
	if len(w.buf) > 0 || w.stageErr != nil {
		return fmt.Errorf("wal: generation change with frames staged")
	}
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
