package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/stream"
	"graphsig/internal/wal"
)

// DefaultFollowPoll is the idle replication poll interval.
const DefaultFollowPoll = 500 * time.Millisecond

// FollowerConfig parameterizes a Follower.
type FollowerConfig struct {
	// Primary is exactly one address: the primary this replica tails.
	// (A slice only because the end-to-end benchmark builds it as one.)
	Primary []string
	// Stream must match the primary's pipeline configuration (scheme,
	// k, classifier, sketch sizing) — signatures are recomputed locally
	// from the shipped records, so a mismatched scheme silently yields
	// different signatures. Origin and WindowSize are learned from the
	// WAL's origin frames and may be left zero.
	Stream stream.Config
	// StoreCapacity / Distance / WatchMaxDist mirror server.Config —
	// watch screening runs on the replica too, so a mismatched threshold
	// silently yields a different hit log.
	StoreCapacity int
	Distance      core.Distance
	WatchMaxDist  *float64
	// Poll is the idle polling interval (0 = DefaultFollowPoll).
	Poll time.Duration
	// ChunkBytes bounds each WAL fetch (0 = server default).
	ChunkBytes int
	// Node stamps the follower's identity into /readyz and metrics.
	Node *server.Identity
	// PromoteDir, when non-empty, is the durability home a Promote call
	// attaches to the replica (fresh WAL + snapshot). Empty promotes to
	// a memory-only primary.
	PromoteDir string
	// SegmentDir / SegmentRetain mirror server.Config: with a segment
	// dir the replica compacts ring evictions into cold segment files
	// built from the shipped WAL. The segment codec is deterministic, so
	// a follower configured like its primary produces bitwise-identical
	// segment files — deep history survives promotion.
	SegmentDir    string
	SegmentRetain int
	// Logger receives operational warnings.
	Logger *slog.Logger
}

// FollowerStats is a snapshot of replication progress.
type FollowerStats struct {
	// Gen and Offset are the cursor: the next byte to fetch.
	Gen    int
	Offset int64
	// AppliedRecords counts records ingested into the local pipeline.
	AppliedRecords int
	// CaughtUp is true when the last fetch reached the primary's live
	// durable tail.
	CaughtUp bool
	// Serving is true once the first origin frame arrived and the local
	// server exists.
	Serving bool
	// Promoted is true once Promote flipped the replica to read-write;
	// replication is permanently stopped at that point.
	Promoted bool
	// LastProgress is when the cursor last advanced (zero before the
	// first fetch) — the prober's seconds-behind source.
	LastProgress time.Time
	// LastErr is the most recent transient error ("" when the last
	// fetch succeeded); Fatal is set when replication stopped for good.
	LastErr string
	Fatal   string
}

// Follower tails a primary's WAL over HTTP and serves read traffic
// from the replica it builds. The primary ships raw durable log bytes;
// the follower reframes them with the recovery torn-tail rules and
// feeds each record through its own pipeline in primary-accepted
// order, so its windows, signatures and archive are byte-for-byte the
// primary's. The local server is built lazily from the first origin
// frame (which fixes window alignment); until then Handler answers
// 503.
//
// Failure model: transport errors and primary restarts are transient —
// the follower keeps serving whatever it has and retries. A pruned
// cursor (410), a bad frame, or an origin mismatch is fatal: the
// replica can no longer prove it equals the primary, so it stops
// applying (and keeps serving stale data, visible via Stats and
// /readyz).
type Follower struct {
	cfg    FollowerConfig
	client *server.Client

	mu      sync.Mutex
	srv     *server.Server
	gen     int
	off     int64
	pending []byte
	applied int
	caught  bool
	lastErr error
	fatal   error

	// watchApplied counts watch entries applied so far; watchSkip is
	// armed with that count at each generation boundary, because every
	// generation opens with a prologue re-logging the full watch set —
	// exactly the entries this follower has already applied when it
	// finished the previous generation. Skipping by count (not by
	// content) keeps genuine duplicate adds intact.
	watchApplied int
	watchSkip    int
	// preOrigin buffers watch/batch frames that precede the first origin
	// frame (possible in generation 0 before the primary's window
	// alignment is known); they apply right after the server is built.
	preOrigin    []wal.Frame
	promoted     bool
	lastProgress time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewFollower builds a follower; Start begins replication.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if len(cfg.Primary) != 1 {
		return nil, fmt.Errorf("cluster: follower has %d primary addresses, want one", len(cfg.Primary))
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultFollowPoll
	}
	f := &Follower{
		cfg:    cfg,
		client: server.NewClient(cfg.Primary[0]),
		off:    wal.HeaderLen,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Replication owns its retry cadence; client-level retries would
	// only add latency under the poll loop.
	f.client.MaxRetries = -1
	return f, nil
}

// Start launches the replication loop.
func (f *Follower) Start() {
	go f.run()
}

// Stop halts replication (the local server keeps serving) and waits
// for the loop to exit.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Server exposes the local replica server (nil until the first origin
// frame arrived).
func (f *Follower) Server() *server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.srv
}

// Stats snapshots replication progress.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		Gen:            f.gen,
		Offset:         f.off,
		AppliedRecords: f.applied,
		CaughtUp:       f.caught,
		Serving:        f.srv != nil,
		Promoted:       f.promoted,
		LastProgress:   f.lastProgress,
	}
	if f.lastErr != nil {
		st.LastErr = f.lastErr.Error()
	}
	if f.fatal != nil {
		st.Fatal = f.fatal.Error()
	}
	return st
}

// Handler serves the replica's read API, answering 503 until the
// local server exists.
func (f *Follower) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv := f.Server()
		if srv == nil {
			server.WriteError(w, http.StatusServiceUnavailable, "follower bootstrapping: no origin frame received yet")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Warn(fmt.Sprintf(format, args...))
	}
}

// run is the replication loop: fetch, apply, advance; sleep only when
// caught up.
func (f *Follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.step()
		f.mu.Lock()
		f.lastErr = err
		fatal := f.fatal
		f.mu.Unlock()
		if fatal != nil {
			f.logf("sigfollower: replication stopped: %v", fatal)
			return
		}
		if progressed && err == nil {
			continue // drain the backlog without sleeping
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.Poll):
		}
	}
}

// step performs one fetch+apply round. It reports whether the cursor
// advanced (more bytes may be immediately available).
func (f *Follower) step() (bool, error) {
	f.mu.Lock()
	gen, off := f.gen, f.off
	srv := f.srv
	f.mu.Unlock()

	// Each poll that ships bytes records a trace on the replica's own
	// ring, and its context rides the fetch so the primary's
	// "replication.wal" segment stitches under it. The trace is finished
	// only when the cursor advances — idle polls must not flood the
	// bounded ring. No server yet (pre-origin) means no tracer; the nil
	// trace below is a no-op.
	var tr *obs.Trace
	if srv != nil {
		tr = srv.Tracer().Start("replication.poll")
	}
	endFetch := tr.Span("wal.fetch")
	chunk, err := f.client.Traced(tr.Context()).FetchWAL(gen, off, f.cfg.ChunkBytes)
	endFetch()
	if err != nil {
		switch server.APIStatus(err) {
		case http.StatusGone:
			// The primary pruned our generation: the missing bytes are
			// unrecoverable over this protocol.
			f.setFatal(fmt.Errorf("cursor pruned by primary (lagged past retention): %w", err))
		case http.StatusConflict:
			f.setFatal(fmt.Errorf("primary is not replicating: %w", err))
		}
		// 404 (generation not started) and transport errors are
		// transient: a restarting primary serves again shortly.
		return false, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	progressed := false
	if len(chunk.Data) > 0 {
		endApply := tr.Span("wal.apply")
		f.pending = append(f.pending, chunk.Data...)
		f.off += int64(len(chunk.Data))
		frames, consumed, serr := wal.ScanFrames(f.pending)
		if serr != nil {
			f.fatal = fmt.Errorf("bad frame at gen %d offset %d: %w", f.gen, f.off-int64(len(f.pending)), serr)
			return false, f.fatal
		}
		f.pending = f.pending[consumed:]
		if err := f.applyLocked(frames); err != nil {
			f.fatal = err
			return false, err
		}
		endApply()
		progressed = true
	}
	f.caught = !chunk.Sealed && f.off >= chunk.Size
	if chunk.Sealed && f.off >= chunk.Size {
		// Generation complete. Durable logs end on frame boundaries, so
		// leftover pending bytes mean corruption, not a torn tail.
		if len(f.pending) > 0 {
			f.fatal = fmt.Errorf("sealed generation %d ended mid-frame (%d pending bytes)", f.gen, len(f.pending))
			return false, f.fatal
		}
		f.gen++
		f.off = wal.HeaderLen
		// The next generation opens by re-logging the full watch set;
		// arm the skip counter so those replays are not applied twice.
		f.watchSkip = f.watchApplied
		progressed = true
	}
	if progressed {
		f.lastProgress = time.Now()
		tr.Finish()
	}
	return progressed, nil
}

func (f *Follower) setFatal(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fatal == nil {
		f.fatal = err
	}
}

// applyLocked feeds decoded frames into the local replica, building
// the server on the first origin frame. Callers hold f.mu.
func (f *Follower) applyLocked(frames []wal.Frame) error {
	var batch []netflow.Record
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res := f.srv.IngestRecords(batch)
		if res.Rejected > 0 {
			// The primary's pipeline accepted every logged record, and
			// ours is configured identically — a rejection means it is
			// not, and the replica is diverging.
			return fmt.Errorf("replica pipeline rejected %d shipped records (config mismatch?): %v", res.Rejected, res.Errors)
		}
		f.applied += len(batch)
		batch = batch[:0]
		return nil
	}
	for i := range frames {
		fr := &frames[i]
		switch fr.Kind {
		case wal.FrameOrigin:
			if f.srv == nil {
				if err := f.buildServerLocked(fr); err != nil {
					return err
				}
				continue
			}
			// Later generations re-record the same alignment; anything
			// else means the primary was rebuilt under our feet.
			if origin, ok := f.srv.PipelineOrigin(); ok && !origin.Equal(fr.Origin) {
				return fmt.Errorf("origin frame %v disagrees with established origin %v", fr.Origin, origin)
			}
		case wal.FrameRecord:
			if f.srv == nil {
				return fmt.Errorf("record frame before any origin frame")
			}
			batch = append(batch, fr.Record)
		case wal.FrameWatch:
			if f.watchSkip > 0 {
				f.watchSkip-- // generation-prologue replay of an applied entry
				continue
			}
			if f.srv == nil {
				f.preOrigin = append(f.preOrigin, *fr)
				f.watchApplied++
				continue
			}
			// Watch entries order against records: an entry screens only
			// windows that close after it, so the pending record batch
			// must land first.
			if err := flush(); err != nil {
				return err
			}
			if err := f.srv.ApplyWatchEntry(*fr.Watch); err != nil {
				return fmt.Errorf("replica rejected shipped watch entry for %q: %w", fr.Watch.Individual, err)
			}
			f.watchApplied++
		case wal.FrameBatch:
			if f.srv == nil {
				f.preOrigin = append(f.preOrigin, *fr)
				continue
			}
			// Dedup markers must register after the records they cover.
			if err := flush(); err != nil {
				return err
			}
			f.srv.RegisterBatch(*fr.Batch)
		}
	}
	return flush()
}

// buildServerLocked creates the read-only replica server once window
// alignment is known.
func (f *Follower) buildServerLocked(origin *wal.Frame) error {
	scfg := f.cfg.Stream
	scfg.Origin = origin.Origin
	if origin.Window > 0 {
		if scfg.WindowSize > 0 && scfg.WindowSize != origin.Window {
			f.logf("sigfollower: configured window %v overridden by primary's %v", scfg.WindowSize, origin.Window)
		}
		scfg.WindowSize = origin.Window
	}
	srv, err := server.New(server.Config{
		Stream:        scfg,
		StoreCapacity: f.cfg.StoreCapacity,
		Distance:      f.cfg.Distance,
		WatchMaxDist:  f.cfg.WatchMaxDist,
		DisableWAL:    true,
		ReadOnly:      true,
		SegmentDir:    f.cfg.SegmentDir,
		SegmentRetain: f.cfg.SegmentRetain,
		Node:          f.cfg.Node,
		Logger:        f.cfg.Logger,
	})
	if err != nil {
		return fmt.Errorf("building replica server: %w", err)
	}
	f.srv = srv
	// Apply mutations that were shipped before window alignment was
	// known (watch adds and batch markers preceding the first ingest).
	for _, fr := range f.preOrigin {
		switch fr.Kind {
		case wal.FrameWatch:
			if err := f.srv.ApplyWatchEntry(*fr.Watch); err != nil {
				return fmt.Errorf("replica rejected buffered watch entry for %q: %w", fr.Watch.Individual, err)
			}
		case wal.FrameBatch:
			f.srv.RegisterBatch(*fr.Batch)
		}
	}
	f.preOrigin = nil
	return nil
}

// Promote's two refusals, which leave the follower as it was.
var (
	errAlreadyPromoted = errors.New("cluster: follower already promoted")
	errNoReplica       = errors.New("cluster: follower has no replica yet (no origin frame received)")
)

// Promote stops replication and flips the replica into a serving
// primary (see server.Promote): the accumulated state — archive, open
// window, watchlist, dedup set — is exactly what the primary had
// durably logged, so routed retries and watch screening carry over. The
// promoted node rejoins the ring under the same shard index with a
// bumped RingEpoch, and starts its own WAL lineage one generation past
// the replication cursor so (gen, offset) positions never collide with
// bytes the old primary shipped.
func (f *Follower) Promote() (*server.Server, error) {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil, errAlreadyPromoted
	}
	if f.srv == nil {
		f.mu.Unlock()
		return nil, errNoReplica
	}
	f.mu.Unlock()

	// Stop outside the lock: the replication loop takes f.mu per step.
	f.Stop()

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, errAlreadyPromoted
	}
	node := &server.Identity{Role: "primary"}
	if f.cfg.Node != nil {
		n := *f.cfg.Node
		n.Role = "primary"
		n.RingEpoch++
		node = &n
	}
	if err := f.srv.Promote(server.PromoteConfig{
		SnapshotDir: f.cfg.PromoteDir,
		WALGen:      f.gen + 1,
		Node:        node,
	}); err != nil {
		// Replication is stopped already, so the replica no longer
		// advances: report that where the prober and operators look.
		f.fatal = fmt.Errorf("promotion failed, replication stopped: %w", err)
		return nil, err
	}
	f.promoted = true
	f.caught = false
	return f.srv, nil
}
