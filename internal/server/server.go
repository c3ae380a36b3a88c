// Package server exposes the signature machinery as an online HTTP
// service — the serving surface behind cmd/sigserverd. Flow records
// are POSTed in batches and run through the §VI streaming pipeline;
// each completed window's signature set lands in a bounded
// internal/store ring, is screened against the watchlist, and becomes
// queryable: per-label history, top-k nearest-signature search,
// watchlist hits and anomaly detection, plus health endpoints and the
// Prometheus metrics exposition.
//
// Durability model (when SnapshotDir is set): accepted records of the
// still-open window go to a CRC-framed write-ahead log (a sibling file
// of the snapshot directory, internal/wal) with one commit — one write,
// one fsync — where the batch is acknowledged, together with the marker
// that makes a retry of the batch idempotent. Whenever a window closes,
// the archive is checkpointed — the new window's file written, then one
// manifest rename (store.Save) — and only then a new log generation
// started, by one more commit that carries the truncation and the
// generation's prologue: no acknowledged record leaves the log before
// the snapshot holding it is durable. On startup a corrupt snapshot or
// WAL is quarantined (renamed aside, logged, counted) rather than
// fatal, and the WAL is replayed through a fresh pipeline; a kill -9
// therefore loses at most the batch nobody acknowledged. A healthy
// snapshot in a format this build no longer reads (store.ErrOldFormat)
// is neither: New returns the error and leaves the directory alone.
//
// Locking model: the streaming pipeline interns labels into the shared
// graph.Universe on ingest, and the Universe is not safe for
// concurrent mutation. One RWMutex therefore guards every handler:
// ingestion (and any other interning path) takes the write lock; pure
// queries take the read lock. The store and watchlist carry their own
// internal locks so they also stay safe for direct library use.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/apps"
	"graphsig/internal/core"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/store"
	"graphsig/internal/stream"
	"graphsig/internal/wal"
)

// Defaults applied by New for unset (zero / nil) Config fields.
const (
	DefaultStoreCapacity = 16
	DefaultWatchMaxDist  = 0.5
	DefaultHitLogSize    = 1024
	DefaultDedupCap      = 4096
	DefaultReplicaRetain = 8
	// DefaultHistoryLimit bounds GET /v1/signatures/{label} when no
	// explicit limit is given: the newest entries win. With a cold tier
	// a label's archive can span months; ?limit=0 requests all of it.
	DefaultHistoryLimit = 1000
)

// Identity names a process's place in a cluster topology. It is
// purely descriptive — the server enforces nothing from it — but it
// surfaces in GET /readyz and as constant Prometheus labels so
// operators and the router can tell shards, followers and epochs
// apart.
type Identity struct {
	// Role is "single", "primary", "follower" or "router".
	Role string `json:"role"`
	// Shard and Shards locate this node on the ring (0-based index out
	// of Shards; Shards 0 means unsharded).
	Shard  int `json:"shard"`
	Shards int `json:"shards,omitempty"`
	// RingEpoch is the fingerprint of the ring membership this node was
	// configured with; mismatched epochs across a fleet mean a config
	// rollout is incomplete.
	RingEpoch uint64 `json:"ring_epoch,omitempty"`
}

// Config parameterizes a Server.
type Config struct {
	// Stream configures the ingestion pipeline (window size, scheme, k,
	// sketch sizing). Origin should be set for restartable deployments
	// so window indices stay aligned across runs; with a WAL the origin
	// is also recorded there and restored automatically.
	Stream stream.Config
	// StoreCapacity bounds the signature store ring (default 16).
	StoreCapacity int
	// Distance scores search, watchlist and anomaly queries
	// (default Jaccard; per-request override via the API).
	Distance core.Distance
	// WatchMaxDist is the watchlist screening threshold applied when
	// windows close. nil means DefaultWatchMaxDist; an explicit &0.0
	// screens exact matches only (previously unconfigurable because 0
	// was silently treated as "use the default").
	WatchMaxDist *float64
	// SnapshotDir, when non-empty, is loaded at startup (if a snapshot
	// exists), written whenever a window closes, and written by
	// Shutdown. A corrupt snapshot is quarantined and the server boots
	// fresh; an old-format one fails New. Snapshots are atomic: see
	// store.Save.
	SnapshotDir string
	// DisableWAL turns off the write-ahead log that otherwise
	// accompanies SnapshotDir (at <SnapshotDir>.wal — a sibling, so a
	// quarantined snapshot directory does not take the log with it).
	DisableWAL bool
	// HitLogSize bounds the retained watchlist hit log. 0 means
	// DefaultHitLogSize; negative retains no hits.
	HitLogSize int
	// MaxInFlight, when positive, bounds concurrently served ingest
	// batches; excess POST /v1/flows requests get 429 + Retry-After.
	MaxInFlight int
	// DedupCap bounds the batch-ID dedup set that makes retried POSTs
	// idempotent. 0 means DefaultDedupCap; negative disables dedup.
	DedupCap int
	// Logf, when non-nil, receives operational log lines (quarantines,
	// failed snapshot saves, WAL trouble).
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives the same operational events as
	// structured log records — and the tracer's slow-operation warnings
	// with trace IDs. It takes precedence over Logf.
	Logger *slog.Logger
	// SlowOp is the span duration beyond which a traced operation logs
	// a slow-operation warning (0 disables slow-op logging).
	SlowOp time.Duration
	// TraceCapacity bounds the recent-trace ring served by GET
	// /v1/traces (0 means DefaultTraceCapacity).
	TraceCapacity int
	// Node, when non-nil, stamps this process's cluster identity into
	// GET /readyz and as constant Prometheus labels (role, shard,
	// ring_epoch) on every exposed family.
	Node *Identity
	// ReadOnly rejects the mutating HTTP endpoints (POST /v1/flows,
	// POST /v1/watchlist) with 403 — the follower serving mode. Library
	// calls (IngestRecords) are unaffected: the replication loop feeds
	// the follower through them.
	ReadOnly bool
	// Replicate switches WAL checkpointing from truncation to rotation:
	// each checkpoint seals the log as an immutable generation segment
	// (<walpath>.gNNNNNNNN) and starts the next generation, and the
	// /v1/replication endpoints serve both live and sealed bytes so
	// followers can tail the log. Requires SnapshotDir and an enabled
	// WAL.
	Replicate bool
	// ReplicaRetain bounds retained sealed segments (0 means
	// DefaultReplicaRetain; negative keeps all). A follower lagging by
	// more generations than this finds its cursor pruned (410) and must
	// re-bootstrap.
	ReplicaRetain int
	// SegmentDir, when non-empty, enables tiered window storage: every
	// window the bounded ring evicts is first compacted into an
	// immutable, checksummed segment file under this directory, and
	// History / windowed Search / per-window reads transparently fall
	// through to it. At startup existing segments are rediscovered and
	// checksum-verified; corrupt files are quarantined aside like a
	// corrupt WAL, never fatal.
	SegmentDir string
	// SegmentRetain, when positive, bounds the number of segment files
	// kept on disk — compaction deletes the oldest beyond the bound, an
	// explicit trade of history depth for disk. 0 keeps everything.
	SegmentRetain int
}

// Float64 returns a pointer to v, for literal Config fields such as
// WatchMaxDist.
func Float64(v float64) *float64 { return &v }

// WatchHit is one recorded watchlist match: label's signature in the
// window that just closed was within WatchMaxDist of an archived
// individual.
type WatchHit struct {
	Window         int
	Label          string
	Individual     string
	ArchivedWindow int
	Dist           float64
}

// Recovery reports what New reconstructed from disk.
type Recovery struct {
	// SnapshotRestored is true when an archive was loaded from disk.
	SnapshotRestored bool
	// SnapshotQuarantined is the path a corrupt snapshot was moved to
	// ("" when the snapshot was healthy or absent).
	SnapshotQuarantined string
	// WALQuarantined is the path a corrupt WAL was moved to.
	WALQuarantined string
	// WALRecords / WALRejected count the replayed log entries and how
	// many the pipeline refused (0 in any consistent log).
	WALRecords  int
	WALRejected int
	// WALTornBytes counts bytes dropped from the log's torn tail.
	WALTornBytes int64
	// WALWindowsClosed counts windows the replay completed (normally 0:
	// the log covers only the open window).
	WALWindowsClosed int
	// SegmentsAttached / SegmentWindows count the cold-tier segment
	// files rediscovered at boot and the window blocks they hold.
	SegmentsAttached int
	SegmentWindows   int
	// SegmentsQuarantined lists corrupt segment files renamed aside.
	SegmentsQuarantined []string
}

// Server is the online signature service.
type Server struct {
	cfg          Config
	start        time.Time
	watchMaxDist float64
	hitLogCap    int

	// mu serializes Universe mutation (ingest, label interning) against
	// all readers; see the package comment.
	mu       sync.RWMutex
	pipeline *stream.Pipeline
	store    *store.Store
	watch    *apps.Watchlist
	hits     []WatchHit
	pending  int // records accepted into the still-open window

	wal *wal.WAL
	// What the live log generation durably holds of its prologue: the
	// origin frame, and how many entries of watchWire (always a prefix —
	// a generation logs the set in add order). walCommitLocked stages the
	// rest and moves both only when the commit carrying it succeeds; a
	// new generation starts from nothing, a restart from what the log it
	// replayed holds. Guarded by mu.
	walOriginLogged  bool
	walWatchesLogged int
	walGen           int // current WAL generation (Replicate mode); guarded by mu
	dedup            *dedupCache
	recovery         Recovery

	// watchWire mirrors every watchlist entry in wire (label) form, in
	// add order, so the full set can be re-logged into each fresh WAL
	// generation — watch entries are rare and the watchlist itself is
	// not in the snapshot, so the log is their only durable home and a
	// bootstrapping follower's only source. Guarded by mu.
	watchWire []wal.WatchEntry

	ingestSem chan struct{}
	metrics   metrics
	obs       *serverObs
	mux       *http.ServeMux

	shuttingDown atomic.Bool // flips at Shutdown entry; read by /readyz
	// readOnly and replicating shadow cfg.ReadOnly / cfg.Replicate for
	// lock-free handler checks; Promote flips them at runtime, so
	// handlers must not read the cfg fields without mu.
	readOnly    atomic.Bool
	replicating atomic.Bool
	// identity is the live cluster identity (starts as cfg.Node);
	// Promote swaps in the promoted one.
	identity atomic.Pointer[Identity]
}

// New builds a server, loading a prior snapshot and replaying the
// write-ahead log when cfg.SnapshotDir holds them. Corrupt state is
// quarantined, never fatal: what still fails the boot is real I/O
// failure or a snapshot or segment in a format this build no longer
// reads, and such a boot leaves the log as it found it.
func New(cfg Config) (*Server, error) {
	if cfg.StoreCapacity == 0 {
		cfg.StoreCapacity = DefaultStoreCapacity
	}
	if cfg.Distance == nil {
		cfg.Distance = core.Jaccard{}
	}
	if cfg.Replicate && (cfg.SnapshotDir == "" || cfg.DisableWAL) {
		return nil, fmt.Errorf("server: Replicate requires SnapshotDir and an enabled WAL")
	}
	if cfg.ReplicaRetain == 0 {
		cfg.ReplicaRetain = DefaultReplicaRetain
	}
	s := &Server{
		cfg:          cfg,
		start:        time.Now(),
		watchMaxDist: DefaultWatchMaxDist,
		hitLogCap:    DefaultHitLogSize,
		watch:        apps.NewWatchlist(),
		mux:          http.NewServeMux(),
	}
	s.obs = newServerObs(cfg.Logger, cfg.SlowOp, cfg.TraceCapacity)
	s.metrics = newMetrics(s.obs.registry)
	s.readOnly.Store(cfg.ReadOnly)
	s.replicating.Store(cfg.Replicate)
	if cfg.Node != nil {
		s.stampIdentity(cfg.Node)
	}
	if cfg.WatchMaxDist != nil {
		s.watchMaxDist = *cfg.WatchMaxDist
	}
	if cfg.HitLogSize != 0 {
		s.hitLogCap = max(cfg.HitLogSize, 0)
	}
	switch {
	case cfg.DedupCap > 0:
		s.dedup = newDedupCache(cfg.DedupCap)
	case cfg.DedupCap == 0:
		s.dedup = newDedupCache(DefaultDedupCap)
	}
	if cfg.MaxInFlight > 0 {
		s.ingestSem = make(chan struct{}, cfg.MaxInFlight)
	}

	scfg := store.Config{
		Capacity:      cfg.StoreCapacity,
		SegmentRetain: cfg.SegmentRetain,
		Registry:      s.obs.registry,
	}
	// The log is read and verified beside the store's load and the
	// segments' attach; the two share nothing. What writes the log —
	// quarantining a corrupt one, opening it for appends — waits for
	// the store, so a boot the store refuses leaves the log as it was.
	logged := cfg.SnapshotDir != "" && !cfg.DisableWAL
	var scan wal.Scanned
	var scanErr error
	var scanned sync.WaitGroup
	if logged {
		scanned.Add(1)
		go func() {
			defer scanned.Done()
			scan, scanErr = wal.Scan(WALPath(cfg.SnapshotDir))
		}()
	}
	err := s.openStore(scfg)
	scanned.Wait()
	if err != nil {
		return nil, err
	}

	var replay wal.Replay
	if logged {
		replay, err = s.openWAL(scan, scanErr)
		if err != nil {
			return nil, err
		}
		if cfg.Replicate {
			// The live log continues the generation after the newest
			// sealed segment; followers identify bytes by (gen, offset),
			// so generation numbers must never repeat across restarts.
			s.walGen, err = nextWALGen(s.wal.Path())
			if err != nil {
				return nil, err
			}
		}
		// Restore window alignment from the log before the pipeline is
		// built; an explicitly configured origin wins.
		if s.cfg.Stream.Origin.IsZero() && !replay.Origin.IsZero() {
			s.cfg.Stream.Origin = replay.Origin
			if replay.Window > 0 && replay.Window != s.cfg.Stream.WindowSize {
				s.logf("sigserver: WAL window size %v differs from configured %v; window indices may shift",
					replay.Window, s.cfg.Stream.WindowSize)
			}
		}
	}

	if s.wal != nil {
		s.instrumentWAL()
	}

	s.cfg.Stream.Registry = s.obs.registry
	p, err := stream.NewPipeline(s.cfg.Stream, s.store.Universe())
	if err != nil {
		return nil, err
	}
	s.pipeline = p
	s.obs.registry.GaugeFunc("uptime_seconds", "seconds since server start",
		func() int64 { return int64(time.Since(s.start).Seconds()) })
	s.obs.registry.GaugeFunc("store_windows", "retained archived windows",
		func() int64 { return int64(s.store.Len()) })
	s.obs.registry.GaugeFunc("watchlist_size", "archived watchlist signatures",
		func() int64 { return int64(s.watch.Len()) })
	if cfg.SegmentDir != "" {
		s.obs.registry.GaugeFunc("store_segment_files", "cold-tier segment files attached",
			func() int64 { return int64(s.store.SegmentCount()) })
		s.obs.registry.GaugeFunc("store_segment_windows", "windows served from cold-tier segments",
			func() int64 { return int64(s.store.SegmentWindows()) })
	}
	s.replayWAL(replay)
	s.routes()
	return s, nil
}

// stampIdentity publishes a cluster identity: /readyz and the
// replication status report it, and every Prometheus family carries it
// as constant labels. Called at New and again at Promote.
func (s *Server) stampIdentity(id *Identity) {
	s.identity.Store(id)
	labels := map[string]string{
		"role":       id.Role,
		"ring_epoch": strconv.FormatUint(id.RingEpoch, 10),
	}
	if id.Shards > 0 {
		labels["shard"] = strconv.Itoa(id.Shard)
	}
	s.obs.registry.SetConstLabels(labels)
}

// Identity reports the live cluster identity (nil when unconfigured).
// Unlike cfg.Node it tracks promotion.
func (s *Server) Identity() *Identity { return s.identity.Load() }

// openStore loads the snapshot (quarantining corruption) or builds a
// fresh store. Any other Load failure — an I/O error, or a healthy
// snapshot in a format this build does not read (store.ErrOldFormat) —
// fails the boot with the directory untouched: quarantining it would
// silently drop up to StoreCapacity good windows.
func (s *Server) openStore(scfg store.Config) error {
	dir := s.cfg.SnapshotDir
	if dir != "" && store.SnapshotExists(dir) {
		st, err := store.Load(dir, scfg)
		if err == nil {
			s.store = st
			s.recovery.SnapshotRestored = true
			return s.attachSegments()
		}
		if !errors.Is(err, store.ErrCorrupt) {
			return err
		}
		moved, qerr := store.Quarantine(dir)
		if qerr != nil {
			return fmt.Errorf("server: snapshot corrupt (%v) and unquarantinable: %w", err, qerr)
		}
		s.recovery.SnapshotQuarantined = moved
		s.metrics.SnapshotQuarantines.Add(1)
		s.logf("sigserver: corrupt snapshot quarantined to %s (%v); booting fresh", moved, err)
	}
	st, err := store.New(scfg)
	if err != nil {
		return err
	}
	s.store = st
	return s.attachSegments()
}

// attachSegments enables the store's cold tier when SegmentDir is
// configured: existing segment files are rediscovered and
// checksum-verified, and corrupt ones (torn compaction tails, flipped
// bytes) are quarantined aside — boot continues without them. A file
// in a format this build no longer reads (segment.ErrOldFormat) fails
// the boot instead, with the directory untouched, like an old-format
// snapshot. It runs after any snapshot load so label interning follows
// the manifest first.
func (s *Server) attachSegments() error {
	if s.cfg.SegmentDir == "" {
		return nil
	}
	st, err := s.store.AttachSegments(s.cfg.SegmentDir)
	if err != nil {
		return err
	}
	s.recovery.SegmentsAttached = st.Segments
	s.recovery.SegmentWindows = st.Windows
	s.recovery.SegmentsQuarantined = st.Quarantined
	for _, q := range st.Quarantined {
		s.logf("sigserver: corrupt segment quarantined to %s", q)
	}
	return nil
}

// WALPath reports where the write-ahead log lives for a snapshot
// directory: beside it, where deployments and bench/ expect it, and
// where quarantining the directory leaves it in place.
func WALPath(snapshotDir string) string { return snapshotDir + ".wal" }

// instrumentWAL attaches the log's two metric families. The registry's
// get-or-create semantics return the ones New registered when Promote
// asks again for a promoted follower's fresh log.
func (s *Server) instrumentWAL() {
	s.wal.Instrument(
		s.obs.registry.Histogram("wal_fsync_seconds",
			"WAL write+fsync latency per commit"),
		s.obs.registry.Counter("wal_appended_bytes_total",
			"framed bytes committed to the WAL"))
}

// openWAL opens the write-ahead log for appends from what wal.Scan
// found in it (sc, err), quarantining a corrupt header first.
func (s *Server) openWAL(sc wal.Scanned, err error) (wal.Replay, error) {
	path := WALPath(s.cfg.SnapshotDir)
	if errors.Is(err, wal.ErrCorrupt) {
		moved, qerr := wal.Quarantine(path)
		if qerr != nil {
			return wal.Replay{}, fmt.Errorf("server: WAL corrupt and unquarantinable: %w", qerr)
		}
		s.recovery.WALQuarantined = moved
		s.metrics.WALQuarantines.Add(1)
		s.logf("sigserver: corrupt WAL quarantined to %s; starting a fresh log", moved)
		sc, err = wal.Scan(path)
	}
	if err != nil {
		return wal.Replay{}, err
	}
	w, err := sc.Open()
	if err != nil {
		return wal.Replay{}, err
	}
	s.wal = w
	replay := sc.Replay
	s.recovery.WALTornBytes = replay.TornBytes
	if replay.TornBytes > 0 {
		s.logf("sigserver: WAL recovery dropped a torn tail of %d bytes", replay.TornBytes)
	}
	return replay, nil
}

// replayWAL pushes recovered frames through the pipeline in append
// order, rebuilding the open window's sketch state, the watchlist and
// the dedup set. Order matters: a watch entry screens only windows
// that close after it, so record and watch frames interleave exactly
// as the primary applied them. Runs before the server is shared, so no
// locking. If the replay completes windows (a snapshot save failed in
// a previous life), they are checkpointed now.
func (s *Server) replayWAL(replay wal.Replay) {
	if len(replay.Frames) == 0 {
		return
	}
	// The open window's tail — what a post-replay checkpoint rewrites
	// into the reset log — is the record frames from tailFrom on, minus
	// those this pipeline did not accept. Replay re-accepts what ingest
	// accepted, so those are few: their indexes are kept, and no record
	// is copied unless the checkpoint happens.
	tailFrom := 0
	var notAccepted []int
	for i := range replay.Frames {
		fr := &replay.Frames[i]
		switch fr.Kind {
		case wal.FrameWatch:
			if err := s.addWatchLocked(*fr.Watch, false); err != nil {
				s.recovery.WALRejected++
				s.logf("sigserver: WAL watch replay failed: %v", err)
			}
			continue
		case wal.FrameBatch:
			s.registerBatchLocked(*fr.Batch)
			continue
		case wal.FrameRecord:
		default:
			continue // origin frames were consumed by Open
		}
		s.recovery.WALRecords++
		before := s.pipeline.Ingested()
		emitted, err := s.pipeline.Ingest(fr.Record)
		if err != nil {
			s.recovery.WALRejected++
			notAccepted = append(notAccepted, i)
			continue
		}
		if len(emitted) > 0 {
			tailFrom, notAccepted = i, notAccepted[:0]
			s.pending = 0
			// Count only windows the store actually kept: replay over a
			// restored snapshot re-derives already-archived (or empty
			// skipped) windows, which Add drops as index conflicts —
			// those must not trigger a re-checkpoint on every boot.
			before := s.store.TotalAdded()
			for _, set := range emitted {
				s.commitWindowLocked(set)
			}
			s.recovery.WALWindowsClosed += s.store.TotalAdded() - before
		}
		if accepted := s.pipeline.Ingested() - before; accepted > 0 {
			s.pending += accepted
		} else {
			notAccepted = append(notAccepted, i)
		}
	}
	// The generation replayed holds these already; committing them into
	// it again would hand the next replay, and a follower tailing the
	// log, every watch entry twice. An origin the log does not state as
	// the pipeline has it (one configured over the log's) is logged anew.
	origin, known := s.pipeline.Origin()
	s.walOriginLogged = known && origin.Equal(replay.Origin)
	s.walWatchesLogged = len(s.watchWire)
	s.metrics.WALReplayedRecords.Add(int64(s.recovery.WALRecords))
	if s.recovery.WALRejected > 0 {
		s.logf("sigserver: WAL replay rejected %d of %d records", s.recovery.WALRejected, s.recovery.WALRecords)
	}
	if s.recovery.WALWindowsClosed > 0 {
		// The log held whole closed windows; archive them durably and
		// shrink the log back to just the open window's tail.
		if err := s.store.Save(s.cfg.SnapshotDir); err != nil {
			s.metrics.SnapshotErrors.Add(1)
			s.logf("sigserver: post-replay snapshot failed, keeping full WAL: %v", err)
			return
		}
		s.metrics.SnapshotSaves.Add(1)
		if !s.resetWALLocked() {
			return
		}
		var tail []netflow.Record
		for i := tailFrom; i < len(replay.Frames); i++ {
			if len(notAccepted) > 0 && notAccepted[0] == i {
				notAccepted = notAccepted[1:]
			} else if fr := &replay.Frames[i]; fr.Kind == wal.FrameRecord {
				tail = append(tail, fr.Record)
			}
		}
		s.walCommitLocked([][]netflow.Record{tail}, nil)
	}
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler {
	return s.instrument(s.mux)
}

// Store exposes the underlying signature store (read-mostly; see the
// package locking model before mutating concurrently with serving).
func (s *Server) Store() *store.Store { return s.store }

// Recovery reports what New reconstructed from disk.
func (s *Server) Recovery() Recovery { return s.recovery }

// PipelineOrigin reports the stream pipeline's window origin once it is
// known — followers use it to cross-check origin frames from later WAL
// generations against the alignment they already committed to.
func (s *Server) PipelineOrigin() (time.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pipeline.Origin()
}

// logf forwards to the configured logger, if any. A structured Logger
// wins over the printf-style Logf; operational events are warnings
// (quarantines, failed saves, degraded durability).
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn(fmt.Sprintf(format, args...))
		return
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// IngestResult summarizes one batch ingestion.
type IngestResult struct {
	Received      int `json:"received"`
	Accepted      int `json:"accepted"`
	Dropped       int `json:"dropped"`
	Rejected      int `json:"rejected"`
	WindowsClosed int `json:"windows_closed"`
	CurrentWindow int `json:"current_window"`
	// Deduplicated marks a replayed result: this batch ID was already
	// ingested and the original outcome is returned unchanged.
	Deduplicated bool     `json:"deduplicated,omitempty"`
	Errors       []string `json:"errors,omitempty"`
}

// maxReportedErrors bounds the per-batch error detail.
const maxReportedErrors = 5

// IngestRecords feeds a batch through the pipeline, committing every
// completed window to the store. Invalid or out-of-order records are
// rejected individually; the rest of the batch proceeds.
func (s *Server) IngestRecords(records []netflow.Record) IngestResult {
	return s.IngestBatch("", records)
}

// IngestBatch is IngestRecords with an optional client-supplied batch
// ID: re-ingesting an ID still in the dedup set returns the recorded
// result without touching the pipeline, making retried POSTs
// idempotent.
func (s *Server) IngestBatch(batchID string, records []netflow.Record) IngestResult {
	tr := s.obs.tracer.Start("ingest")
	defer tr.Finish()
	return s.ingestBatchTraced(tr, batchID, records)
}

// ingestBatchTraced is IngestBatch under a caller-owned trace — the
// HTTP handler adopts an inbound X-Sig-Trace context so a routed
// ingest's shard-side work records under the router's trace ID.
func (s *Server) ingestBatchTraced(tr *obs.Trace, batchID string, records []netflow.Record) IngestResult {
	endWait := tr.Span("lock.wait")
	s.mu.Lock()
	endWait()
	defer s.mu.Unlock()
	if batchID != "" && s.dedup != nil {
		if res, ok := s.dedup.get(batchID); ok {
			s.metrics.BatchesDeduped.Add(1)
			res.Deduplicated = true
			return res
		}
	}
	return s.ingestLocked(tr, batchID, records)
}

// ingestLocked runs one batch through the pipeline and acknowledges it
// with one WAL commit at its end: the accepted records and, for a batch
// with an ID, the marker that makes a retry idempotent — here after a
// crash, or on a follower after its promotion — become durable together
// or not at all. A batch that closes a window commits once more, inside
// the checkpoint (see checkpointLocked).
func (s *Server) ingestLocked(tr *obs.Trace, batchID string, records []netflow.Record) IngestResult {
	res := IngestResult{Received: len(records)}
	s.metrics.FlowsReceived.Add(int64(len(records)))
	// The batch's accepted records are logged as runs — stretches of
	// records between a rejected or dropped one and the next — so
	// nothing is copied on the way to the log.
	var runs [][]netflow.Record
	runFrom := -1 // where the run being extended starts; -1 between runs
	endRun := func(end int) {
		if runFrom >= 0 {
			runs = append(runs, records[runFrom:end])
			runFrom = -1
		}
	}
	// The trace's pipeline.ingest spans cover the records the pipeline
	// observes between the batch's start, its closes and its end.
	observing := time.Now()
	for i := range records {
		before := s.pipeline.Ingested()
		// The log holds a start to the millisecond. The pipeline sees no
		// more, or a record within a millisecond of a window's edge would
		// change windows when it is replayed, here or on a follower.
		r := records[i]
		r.Start = r.Start.Truncate(time.Millisecond)
		emitted, err := s.pipeline.Ingest(r)
		if len(emitted) > 0 {
			closing := s.pipeline.CloseBegan()
			tr.Record("pipeline.ingest", observing, closing)
			tr.Record("window.extract", closing, time.Now())
		}
		if err != nil {
			endRun(i)
			res.Rejected++
			s.metrics.FlowsRejected.Add(1)
			if len(res.Errors) < maxReportedErrors {
				res.Errors = append(res.Errors, err.Error())
			}
			continue
		}
		if len(emitted) > 0 {
			endRun(i)
			s.pending = 0
			endCommit := tr.Span("window.commit")
			for _, set := range emitted {
				s.commitWindowLocked(set)
				res.WindowsClosed++
			}
			endCommit()
			// The log's records and the runs so far all belong to archived
			// windows (the record that triggered the close is observed into
			// the new window and starts the next run), so the checkpoint
			// may drop both. When it cannot — the save failed — the runs
			// stay and ride the batch-end commit: the log then holds the
			// closed windows whole, and nobody was told so before it does.
			endCP := tr.Span("checkpoint")
			if s.checkpointLocked(runs) {
				runs = runs[:0]
			}
			endCP()
			observing = time.Now()
		}
		if accepted := s.pipeline.Ingested() - before; accepted > 0 {
			res.Accepted += accepted
			s.pending += accepted
			s.metrics.FlowsAccepted.Add(int64(accepted))
			if runFrom < 0 {
				runFrom = i
			}
		} else {
			endRun(i)
			res.Dropped++ // filtered (e.g. non-TCP under TCPOnly)
			s.metrics.FlowsDropped.Add(1)
		}
	}
	endRun(len(records))
	tr.Record("pipeline.ingest", observing, time.Now())
	res.CurrentWindow = s.pipeline.CurrentWindow()
	var marker *wal.BatchEntry
	if batchID != "" && s.dedup != nil {
		s.dedup.put(batchID, res)
		// Make the dedup decision durable and shippable: a follower that
		// replays this marker registers the same ID with the same
		// recorded result, so a client retry that lands on the follower
		// after its promotion is answered exactly like a retry here.
		if s.wal != nil {
			if payload, err := json.Marshal(res); err != nil {
				s.logf("sigserver: encoding batch result for WAL: %v", err)
			} else {
				marker = &wal.BatchEntry{ID: batchID, Result: payload}
			}
		}
	}
	endWAL := tr.Span("wal.append")
	s.walCommitLocked(runs, marker)
	endWAL()
	return res
}

// walCommitLocked is the server's one way into the log, called exactly
// where it acknowledges: at the end of a batch, after a watchlist add,
// after a generation change. One commit carries whatever the live
// generation still lacks of its prologue — the origin once the pipeline
// knows it, the watch entries past the ones the generation holds (all
// of them after a reset or rotation, the new one on the watch path,
// those of a commit that failed) —, then runs, then marker. It reports
// whether that is durable. WAL failure degrades durability, not
// availability: it is logged and counted, serving continues, nothing of
// the commit is in the log, and what the generation holds is recorded
// only once the commit that carried it has succeeded. Callers hold s.mu.
func (s *Server) walCommitLocked(runs [][]netflow.Record, marker *wal.BatchEntry) bool {
	if s.wal == nil {
		return false
	}
	origin, ok := s.pipeline.Origin()
	logOrigin := ok && !s.walOriginLogged
	if logOrigin {
		s.wal.StageOrigin(origin, s.cfg.Stream.WindowSize)
	}
	watches := s.watchWire[s.walWatchesLogged:]
	s.wal.StageWatches(watches)
	s.wal.StageRecords(runs...)
	if marker != nil {
		s.wal.StageBatch(*marker)
	}
	if err := s.wal.Commit(); err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("sigserver: WAL commit failed (durability degraded): %v", err)
		return false
	}
	s.walOriginLogged = s.walOriginLogged || logOrigin
	s.walWatchesLogged = len(s.watchWire)
	for _, run := range runs {
		s.metrics.WALAppendedRecords.Add(int64(len(run)))
	}
	return true
}

// registerBatchLocked replays one batch dedup marker (WAL recovery or
// follower replication) into the dedup set. Callers hold s.mu.
func (s *Server) registerBatchLocked(e wal.BatchEntry) {
	if s.dedup == nil || e.ID == "" {
		return
	}
	var res IngestResult
	if len(e.Result) > 0 {
		if err := json.Unmarshal(e.Result, &res); err != nil {
			s.logf("sigserver: undecodable batch result for %q: %v", e.ID, err)
			res = IngestResult{}
		}
	}
	s.dedup.put(e.ID, res)
}

// RegisterBatch is registerBatchLocked for the replication path: the
// follower feeds shipped batch markers through it so a promoted
// follower inherits the primary's dedup set.
func (s *Server) RegisterBatch(e wal.BatchEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerBatchLocked(e)
}

// addWatchLocked applies one watchlist mutation in wire form —
// interning its labels, archiving it, and mirroring it into watchWire
// for per-generation re-logging. With logToWAL set (the HTTP add path)
// the entry is also committed to the log; replay paths pass false, the
// entry is already in the log they came from. Callers hold s.mu.
func (s *Server) addWatchLocked(e wal.WatchEntry, logToWAL bool) error {
	sig, err := s.internSignature(SignatureJSON{Nodes: e.Nodes, Weights: e.Weights})
	if err != nil {
		return err
	}
	if err := s.watch.Add(e.Individual, e.Window, sig); err != nil {
		return err
	}
	s.watchWire = append(s.watchWire, e)
	if logToWAL {
		s.walCommitLocked(nil, nil)
	}
	return nil
}

// ApplyWatchEntry applies one WAL-shipped watchlist mutation — the
// follower replication path. The entry is not re-framed locally; a
// later Promote re-logs the accumulated set into the promoted node's
// own log.
func (s *Server) ApplyWatchEntry(e wal.WatchEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.addWatchLocked(e, false); err != nil {
		return err
	}
	s.metrics.WatchlistAdds.Add(1)
	return nil
}

// checkpointLocked makes the archive durable and starts a new log
// generation, and reports whether runs — accepted records of the batch
// in flight, not in the log yet — need no logging any more. Callers must
// guarantee every WAL entry and every run belongs to an already
// archived window. The invariant it keeps: no acknowledged record
// leaves the log before the snapshot holding it is durable. On snapshot
// failure the log is left intact — the closed windows then live only
// there, the caller commits runs beside them, and the next successful
// checkpoint (or startup replay) recovers them.
func (s *Server) checkpointLocked(runs [][]netflow.Record) bool {
	if s.cfg.SnapshotDir == "" {
		return true
	}
	if err := s.store.Save(s.cfg.SnapshotDir); err != nil {
		s.metrics.SnapshotErrors.Add(1)
		s.logf("sigserver: snapshot save failed (WAL kept): %v", err)
		return false
	}
	s.metrics.SnapshotSaves.Add(1)
	if s.wal == nil {
		return true
	}
	// The snapshot holds runs now. Followers rebuild windows from records
	// though, so the generation a replicating node is about to seal must
	// hold them as well: when that commit fails the generation stays open
	// — sealed without them it would hand followers a window the primary
	// never had — and runs ride the batch-end commit.
	if s.cfg.Replicate && !s.walCommitLocked(runs, nil) {
		return false
	}
	s.resetWALLocked()
	return true
}

// resetWALLocked starts a new log generation once a snapshot holds
// everything the log does, and reports whether it did. Normally the old
// generation is truncated away; in Replicate mode it is instead sealed
// as an immutable segment file, so a follower whose cursor is still
// inside it can keep fetching its bytes. Either way the new generation
// opens with its prologue — the pipeline origin and the full watchlist
// wire set — committed at once, and that commit is what makes the
// truncation (or the new file) durable too. The watchlist is memory-only
// outside the log (it is not in the snapshot), so every generation must
// open with the complete set — which also hands it to followers whose
// cursor starts mid-lineage. Callers hold s.mu (or run before the
// server is shared).
func (s *Server) resetWALLocked() bool {
	var err error
	if !s.cfg.Replicate {
		err = s.wal.Reset()
	} else if err = s.wal.Rotate(walSegmentPath(s.wal.Path(), s.walGen)); err == nil {
		s.walGen++
		s.pruneSegmentsLocked()
	}
	if err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("sigserver: WAL reset failed (log kept): %v", err)
		return false
	}
	s.metrics.WALResets.Add(1)
	s.walOriginLogged, s.walWatchesLogged = false, 0
	s.walCommitLocked(nil, nil)
	return true
}

// walSegmentPath names the sealed segment file of one WAL generation.
func walSegmentPath(walPath string, gen int) string {
	return fmt.Sprintf("%s.g%08d", walPath, gen)
}

// walSegmentGens lists the generations with sealed segments beside
// walPath, ascending.
func walSegmentGens(walPath string) ([]int, error) {
	matches, err := filepath.Glob(walPath + ".g*")
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var gens []int
	for _, m := range matches {
		g, err := strconv.Atoi(strings.TrimPrefix(m, walPath+".g"))
		if err != nil {
			continue // stray file (e.g. a quarantined segment)
		}
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens, nil
}

// nextWALGen picks the generation number for the live log: one past
// the newest sealed segment, 0 on a fresh deployment.
func nextWALGen(walPath string) (int, error) {
	gens, err := walSegmentGens(walPath)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 0, nil
	}
	return gens[len(gens)-1] + 1, nil
}

// pruneSegmentsLocked drops sealed segments beyond the retention
// bound, oldest first. Pruning is best-effort: a failed remove is
// logged and retried at the next rotation.
func (s *Server) pruneSegmentsLocked() {
	retain := s.cfg.ReplicaRetain
	if retain < 0 {
		return
	}
	gens, err := walSegmentGens(s.wal.Path())
	if err != nil {
		s.logf("sigserver: listing WAL segments: %v", err)
		return
	}
	for len(gens) > retain {
		g := gens[0]
		gens = gens[1:]
		if err := os.Remove(walSegmentPath(s.wal.Path(), g)); err != nil {
			s.logf("sigserver: pruning WAL segment g%08d: %v", g, err)
			return
		}
	}
}

// Snapshot saves the archive now — the periodic background loop in
// cmd/sigserverd calls this so durability of archived windows does not
// depend on a graceful shutdown. The WAL is not truncated: it still
// covers the open window.
func (s *Server) Snapshot() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	// Read lock: Save only reads server state (store and universe have
	// their own synchronization, and store.Save serializes itself).
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.store.Save(s.cfg.SnapshotDir); err != nil {
		s.metrics.SnapshotErrors.Add(1)
		return err
	}
	s.metrics.SnapshotSaves.Add(1)
	return nil
}

// commitWindowLocked archives one completed window and screens it
// against the watchlist. Callers hold s.mu.
func (s *Server) commitWindowLocked(set *core.SignatureSet) {
	// The window's snapshot file is written beside the compaction Add
	// runs, so the checkpoint that follows finds it written.
	if err := s.store.AddSaving(set, s.cfg.SnapshotDir); err != nil {
		// A snapshot/replay overlap: the window index already exists.
		// The archived window wins and the new one is dropped; recovery
		// tells kept from dropped by Store.TotalAdded.
		return
	}
	s.metrics.WindowsClosed.Add(1)
	if s.watch.Len() == 0 || set.Len() == 0 {
		return
	}
	u := s.store.Universe()
	screened, err := s.watch.Screen(s.cfg.Distance, set, s.watchMaxDist)
	if err != nil {
		return
	}
	for v, hits := range screened {
		for _, h := range hits {
			s.hits = append(s.hits, WatchHit{
				Window:         set.Window,
				Label:          u.Label(v),
				Individual:     h.Individual,
				ArchivedWindow: h.Window,
				Dist:           h.Dist,
			})
			s.metrics.WatchlistHits.Add(1)
		}
	}
	if over := len(s.hits) - s.hitLogCap; over > 0 {
		s.hits = append(s.hits[:0:0], s.hits[over:]...)
	}
}

// Flush closes the current window if any records are pending in it and
// commits the resulting signature set. It returns the number of
// windows closed (0 or 1).
func (s *Server) Flush() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == 0 {
		return 0, nil
	}
	set, err := s.pipeline.Flush()
	if err != nil {
		return 0, fmt.Errorf("server: flush: %w", err)
	}
	s.pending = 0
	s.commitWindowLocked(set)
	return 1, nil
}

// Shutdown finalizes the server: the partial window (if non-empty) is
// flushed into the store, and — when a snapshot directory is
// configured — the store is saved and the WAL truncated. A failed
// flush no longer skips the snapshot: whatever is already archived is
// saved before the flush error is returned. The HTTP listener itself
// is owned and drained by the caller (cmd/sigserverd) before calling
// Shutdown.
func (s *Server) Shutdown() error {
	s.shuttingDown.Store(true) // /readyz flips to 503 while we drain
	_, flushErr := s.Flush()
	var saveErr error
	if s.cfg.SnapshotDir != "" {
		s.mu.Lock()
		if saveErr = s.store.Save(s.cfg.SnapshotDir); saveErr != nil {
			s.metrics.SnapshotErrors.Add(1)
		} else {
			s.metrics.SnapshotSaves.Add(1)
			if flushErr == nil && s.wal != nil {
				// Everything is archived and saved; empty the log,
				// keeping the origin for the next run's alignment. On a
				// failed flush the open window's records must stay in
				// the WAL — they are its only surviving copy.
				s.resetWALLocked()
			}
		}
		s.mu.Unlock()
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && flushErr == nil && saveErr == nil {
			flushErr = err
		}
	}
	if flushErr != nil {
		return flushErr
	}
	return saveErr
}

// Abort releases the server's file handles without flushing, saving,
// or truncating anything — the kill -9 path: what survives is exactly
// the last snapshot plus the fsynced WAL frames. Crash-recovery tests
// and the simcheck harness use it to model a crash without leaking a
// descriptor per abandoned server. The server must not be used after.
func (s *Server) Abort() {
	if s.wal != nil {
		s.wal.Close()
	}
}

// Hits returns a copy of the recorded watchlist hit log, oldest first.
func (s *Server) Hits() []WatchHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]WatchHit(nil), s.hits...)
}

// distanceFor resolves a per-request distance override.
func (s *Server) distanceFor(name string) (core.Distance, error) {
	if name == "" {
		return s.cfg.Distance, nil
	}
	d, ok := core.DistanceByName(name)
	if !ok {
		return nil, fmt.Errorf("server: unknown distance %q", name)
	}
	return d, nil
}

// dedupCache is the bounded batch-ID → result map behind idempotent
// ingest, evicting oldest-first. Guarded by Server.mu.
type dedupCache struct {
	cap     int
	order   []string
	results map[string]IngestResult
}

func newDedupCache(cap int) *dedupCache {
	return &dedupCache{cap: cap, results: make(map[string]IngestResult, cap)}
}

func (d *dedupCache) get(id string) (IngestResult, bool) {
	res, ok := d.results[id]
	return res, ok
}

func (d *dedupCache) put(id string, res IngestResult) {
	if _, ok := d.results[id]; ok {
		return
	}
	if len(d.order) >= d.cap {
		evict := d.order[0]
		d.order = d.order[1:]
		delete(d.results, evict)
	}
	d.order = append(d.order, id)
	d.results[id] = res
}
