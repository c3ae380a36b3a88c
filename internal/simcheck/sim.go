package simcheck

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"graphsig/internal/fault"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stats"
	"graphsig/internal/stream"
	"graphsig/internal/wal"
)

// simT0 anchors the logical clock. The harness owns all time: record
// timestamps advance from here by RNG-drawn steps, and nothing inside
// a run consults the wall clock for simulation decisions.
var simT0 = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// distTol absorbs float summation-order differences between the
// server's NodeID-space kernels and the model's label-space loops.
const distTol = 1e-9

// traceLen bounds the op trace kept for divergence reports.
const traceLen = 64

// Config parameterizes one simulation run.
type Config struct {
	// Seed drives the whole schedule; the same seed replays the same
	// run bit-for-bit.
	Seed int64
	// Ops is the schedule length.
	Ops int
	// Dir is the scratch directory for the snapshot + WAL (required;
	// reused state from a previous run makes the model diverge, so give
	// every run a fresh directory).
	Dir string
	// Labels sizes the host pool (default 18).
	Labels int
	// Capacity bounds the store ring (default 5).
	Capacity int
	// K is the signature length (default 4).
	K int
	// WindowSize is the aggregation window (default 5m of logical time).
	WindowSize time.Duration
	// ExplicitOrigin pins the pipeline origin to simT0; otherwise the
	// origin is learned from the first accepted record and restored via
	// the WAL across restarts.
	ExplicitOrigin bool
	// Faults interleaves failpoint injection (failed fsyncs, snapshot
	// saves failing before or after their commit, failed WAL
	// truncation) into ingest and snapshot ops.
	Faults bool
	// Restarts interleaves graceful restarts, crashes, and crashes with
	// torn WAL tails.
	Restarts bool
	// CrashInside turns some of the Restarts schedule's crashes into ones
	// that land inside an ingest — after the batch's first checkpoint,
	// before the commit at its end — each followed by the reboot and the
	// client's retry of the batch. Off, a seed keeps the schedule it had
	// before the op existed.
	CrashInside bool
	// Segments attaches a cold segment tier under Dir: the ring stays at
	// Capacity while compaction moves evictions into immutable segment
	// files, and the model turns unbounded — every window ever closed
	// must stay servable through History/Search/Window across crashes.
	// With Faults on, compaction failures (clean and torn-commit) are
	// injected too; they must defer eviction, never lose a window.
	Segments bool
}

func (c Config) withDefaults() Config {
	if c.Labels == 0 {
		c.Labels = 18
	}
	if c.Capacity == 0 {
		c.Capacity = 5
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.WindowSize == 0 {
		c.WindowSize = 5 * time.Minute
	}
	return c
}

// streamConfig is the pipeline configuration shared (by value) between
// the real server and the model's mirror pipeline.
func (c Config) streamConfig() stream.Config {
	sc := stream.Config{
		WindowSize: c.WindowSize,
		TCPOnly:    true, // exercise the dropped-record path
		K:          c.K,
		Scheme:     "tt",
		// 8 cells a row: a sparse source read through them would not
		// come out exact (model.closeExact).
		Sketch: sketch.StreamConfig{Depth: 2, Width: 8, Candidates: 16, Seed: 9},
	}
	if c.ExplicitOrigin {
		sc.Origin = simT0
	}
	return sc
}

func (c Config) serverConfig() server.Config {
	scfg := server.Config{
		Stream:        c.streamConfig(),
		StoreCapacity: c.Capacity,
		SnapshotDir:   filepath.Join(c.Dir, "snap"),
		DedupCap:      512,
	}
	if c.Segments {
		scfg.SegmentDir = filepath.Join(c.Dir, "segments")
	}
	return scfg
}

// archiveCap is the model archive's bound: with a segment tier the
// real node retains every window, so the reference must too.
func (c Config) archiveCap() int {
	if c.Segments {
		return math.MaxInt / 2
	}
	return c.Capacity
}

// Divergence is a model/server disagreement: the seed and op index
// replay it exactly (same Config, same Seed, Ops ≥ Op+1), and Trace
// holds the ops leading up to it.
type Divergence struct {
	Seed   int64
	Op     int
	Detail string
	Trace  []string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("simcheck: seed %d diverged at op %d: %s\ntrace (last %d ops):\n%s",
		d.Seed, d.Op, d.Detail, len(d.Trace), formatTrace(d.Trace))
}

func formatTrace(trace []string) string {
	out := ""
	for _, t := range trace {
		out += "  " + t + "\n"
	}
	return out
}

// sentBatch remembers an ingested batch so a later op can retry it and
// check the dedup contract.
type sentBatch struct {
	id      string
	records []netflow.Record
	outcome server.IngestResult
}

// sim is one run's mutable state.
type sim struct {
	cfg   Config
	rng   *stats.RNG
	srv   *server.Server
	model *model

	clock   time.Time
	labels  []string
	batchN  int
	batches []sentBatch // recent batches for retry ops (bounded ring)
	trace   []string
	op      int
}

// Run executes a simulation and returns nil or a *Divergence (any
// other error type signals a harness/IO failure, not a model
// disagreement).
func Run(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return fmt.Errorf("simcheck: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("simcheck: %w", err)
	}
	s := &sim{cfg: cfg, rng: stats.NewRNG(cfg.Seed), clock: simT0}
	for i := 0; i < cfg.Labels; i++ {
		s.labels = append(s.labels, fmt.Sprintf("h%02d", i))
	}
	m, err := newModel(cfg)
	if err != nil {
		return err
	}
	s.model = m
	srv, err := server.New(cfg.serverConfig())
	if err != nil {
		return fmt.Errorf("simcheck: server: %w", err)
	}
	s.srv = srv
	defer func() {
		if s.srv != nil {
			s.srv.Abort()
		}
	}()

	for s.op = 0; s.op < cfg.Ops; s.op++ {
		if err := s.step(); err != nil {
			return err
		}
		if s.op%16 == 15 {
			if err := s.deepCompare("periodic"); err != nil {
				return err
			}
		}
	}
	return s.deepCompare("final")
}

// Minimize re-runs cfg truncated to just past the divergence's op in a
// fresh scratch directory, confirming the failure replays and
// returning the shortest-prefix divergence (whose trace ends at the
// failing op). A nil return means the divergence did not reproduce —
// itself a bug worth reporting, since runs are deterministic.
func Minimize(cfg Config, div *Divergence) (*Divergence, error) {
	sub, err := os.MkdirTemp(cfg.Dir, "minimize-*")
	if err != nil {
		return nil, fmt.Errorf("simcheck: %w", err)
	}
	trimmed := cfg
	trimmed.Dir = sub
	trimmed.Ops = div.Op + 1
	err = Run(trimmed)
	if err == nil {
		return nil, nil
	}
	if d, ok := err.(*Divergence); ok {
		return d, nil
	}
	return nil, err
}

// fail builds a Divergence for the current op.
func (s *sim) fail(format string, args ...any) error {
	return &Divergence{
		Seed:   s.cfg.Seed,
		Op:     s.op,
		Detail: fmt.Sprintf(format, args...),
		Trace:  append([]string(nil), s.trace...),
	}
}

// note appends an op description to the bounded trace.
func (s *sim) note(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf("op %4d: ", s.op)+fmt.Sprintf(format, args...))
	if over := len(s.trace) - traceLen; over > 0 {
		s.trace = append(s.trace[:0:0], s.trace[over:]...)
	}
}

// step runs one scheduled operation and its per-op invariant checks.
func (s *sim) step() error {
	r := s.rng.Float64()
	if !s.cfg.Restarts {
		// Fold the restart budget back into ingest.
		if r >= 0.90 {
			r = 0.25
		}
	}
	switch {
	case r < 0.55:
		return s.opIngest()
	case r < 0.70:
		return s.opSearch()
	case r < 0.80:
		return s.opHistory()
	case r < 0.84:
		return s.opSnapshot()
	case r < 0.88:
		return s.opRetry()
	case r < 0.90:
		return s.opFlush()
	case r < 0.93:
		return s.opRestart()
	case r < 0.95 || r < 0.97 && !s.cfg.CrashInside:
		return s.opCrash(false)
	case r < 0.97:
		return s.opCrashInside()
	default:
		return s.opCrash(true)
	}
}

// pickPlan draws this op's fault plan (none unless faults are on).
func (s *sim) pickPlan() faultPlan {
	if !s.cfg.Faults || !s.rng.Bernoulli(0.12) {
		return faultPlan{}
	}
	switch f := s.rng.Float64(); {
	case f < 0.20:
		return faultPlan{walFail: walFailAll}
	case f < 0.30:
		return faultPlan{walFail: walFailFirst}
	case f < 0.40:
		return faultPlan{walFail: walFailRest}
	case f < 0.70:
		return faultPlan{snapFail: true}
	case f < 0.85:
		return faultPlan{snapCommitted: true}
	case f < 0.92 && s.cfg.Segments:
		return faultPlan{segFail: true}
	default:
		return faultPlan{resetFail: true}
	}
}

// faultNames are the failpoints the harness may install; cleared (by
// name, so unrelated hooks survive) after every faulted op.
var faultNames = []string{
	"wal.write", "wal.sync", "wal.reset",
	"store.save.window", "store.save.window.commit", "store.save.labels", "store.save.labels.commit",
	"store.save.manifest", "store.save.sweep",
	"segment.write", "segment.commit",
}

// installPlan arms the plan's failpoints; the returned func disarms
// them.
func (s *sim) installPlan(plan faultPlan) func() {
	errInjected := fmt.Errorf("simcheck: injected fault (%s)", plan)
	hook := func() error { return errInjected }
	switch {
	case plan.walFail != 0:
		commit := 0 // every WAL commit hits wal.sync once
		fault.Set("wal.sync", func() error {
			commit++
			if plan.walFail.fails(commit - 1) {
				return errInjected
			}
			return nil
		})
	case plan.snapFail:
		// Vary which stage of the save dies. A save with no new window
		// or label to write never reaches their points, so the manifest
		// point is armed behind them: one way or the other the save dies
		// before its rename.
		name := []string{"store.save.window", "store.save.window.commit", "store.save.labels", "store.save.labels.commit",
			"store.save.manifest"}[s.rng.Intn(5)]
		fault.Set(name, hook)
		fault.Set("store.save.manifest", hook)
	case plan.snapCommitted:
		fault.Set("store.save.sweep", hook)
	case plan.segFail:
		// Vary whether the compaction dies cleanly or tears mid-commit
		// (leaving a stale .tmp for the next boot to sweep); either way
		// eviction defers and no window may be lost.
		name := []string{"segment.write", "segment.commit"}[s.rng.Intn(2)]
		fault.Set(name, hook)
	case plan.resetFail:
		fault.Set("wal.reset", hook)
	default:
		return func() {}
	}
	return clearFaults
}

// clearFaults disarms every failpoint the harness may have installed.
func clearFaults() {
	for _, n := range faultNames {
		fault.Clear(n)
	}
}

// nextRecord draws one flow record and advances the logical clock.
func (s *sim) nextRecord() netflow.Record {
	// Clock step: usually a short hop, occasionally a multi-window jump
	// or a step back past a window boundary (rejected by the pipeline).
	switch v := s.rng.Float64(); {
	case v < 0.05:
		s.clock = s.clock.Add(time.Duration(1+s.rng.Intn(3)) * s.cfg.WindowSize)
	case v < 0.08:
		s.clock = s.clock.Add(-s.cfg.WindowSize / 2)
	default:
		s.clock = s.clock.Add(time.Duration(s.rng.Intn(20)) * time.Second)
	}
	src := s.labels[s.rng.Intn(len(s.labels))]
	dst := s.labels[s.rng.Intn(len(s.labels))]
	for dst == src {
		dst = s.labels[s.rng.Intn(len(s.labels))]
	}
	rec := netflow.Record{
		Src: src, Dst: dst, Start: s.clock,
		Duration: time.Duration(s.rng.Intn(30)) * time.Second,
		Sessions: 1 + s.rng.Intn(5),
		Bytes:    int64(100 + s.rng.Intn(10000)),
		Packets:  int64(1 + s.rng.Intn(100)),
		Proto:    netflow.TCP,
	}
	switch v := s.rng.Float64(); {
	case v < 0.05:
		rec.Proto = netflow.UDP // dropped under TCPOnly
	case v < 0.09:
		rec.Sessions = 0 // invalid: rejected
	case v < 0.11:
		rec.Dst = rec.Src // invalid self-flow: rejected
	}
	return rec
}

// nextBatch draws the records of one ingest op.
func (s *sim) nextBatch() []netflow.Record {
	records := make([]netflow.Record, 1+s.rng.Intn(12))
	for i := range records {
		records[i] = s.nextRecord()
	}
	return records
}

func (s *sim) opIngest() error {
	records := s.nextBatch()
	plan := s.pickPlan()
	s.batchN++
	id := fmt.Sprintf("batch-%06d", s.batchN)
	s.note("ingest %s n=%d fault=%s clock=%s", id, len(records), plan, s.clock.Format("15:04:05"))

	disarm := s.installPlan(plan)
	res := s.srv.IngestBatch(id, records)
	disarm()
	return s.checkIngested(id, records, res, plan)
}

// checkIngested holds the answer to a batch the node had not seen to the
// model's, and remembers the batch for a later retry op.
func (s *sim) checkIngested(id string, records []netflow.Record, res server.IngestResult, plan faultPlan) error {
	want, err := s.model.ingest(id, records, plan)
	if err != nil {
		return err
	}
	if res.Deduplicated {
		return s.fail("fresh batch %s came back deduplicated", id)
	}
	if err := s.compareOutcome(res, want, len(records)); err != nil {
		return err
	}
	s.batches = append(s.batches, sentBatch{id: id, records: records, outcome: res})
	if len(s.batches) > 32 {
		s.batches = s.batches[1:]
	}
	return s.cheapCompare()
}

// opCrashInside is an ingest the node does not survive. It dies after
// the batch's first checkpoint — the closed windows saved, the new log
// generation opened by its prologue commit — and before the commit at
// the batch's end, so whatever the batch did after the close was never
// logged and no marker for it exists. The node reboots and the client,
// which got no answer, retries the batch: it must apply, once. A batch
// that closes no window has no such point and runs as a plain ingest.
//
// A failpoint hook inside the log runs under its lock and cannot close
// it, so the node dies the way its disk sees it: from the crash point on
// every write it attempts fails, and it is aborted once the call returns.
func (s *sim) opCrashInside() error {
	records := s.nextBatch()
	s.batchN++
	id := fmt.Sprintf("batch-%06d", s.batchN)
	s.note("ingest %s n=%d crash-inside clock=%s", id, len(records), s.clock.Format("15:04:05"))

	// 0: no checkpoint yet; 1: the first one has truncated the log, its
	// prologue commit is under way; 2: that commit is synced — dead.
	stage := 0
	errDead := fmt.Errorf("simcheck: the node died after its first checkpoint")
	dead := func() error {
		if stage == 2 {
			return errDead
		}
		return nil
	}
	fault.Set("wal.reset", func() error {
		if stage == 0 {
			stage = 1
		}
		return dead()
	})
	fault.Set("wal.sync", func() error {
		if stage == 1 {
			stage = 2
			return nil
		}
		return dead()
	})
	for _, point := range []string{"wal.write", "store.save.window", "store.save.labels", "store.save.manifest", "segment.write"} {
		fault.Set(point, dead)
	}
	res := s.srv.IngestBatch(id, records)
	clearFaults()
	if stage == 0 {
		return s.checkIngested(id, records, res, faultPlan{})
	}

	s.srv.Abort()
	s.srv = nil
	if err := s.model.crashInside(records); err != nil {
		return err
	}
	if err := s.reopen(0); err != nil {
		return err
	}
	s.note("retry %s after the crash inside it", id)
	return s.checkIngested(id, records, s.srv.IngestBatch(id, records), faultPlan{})
}

// compareOutcome checks an IngestResult against the model's prediction.
func (s *sim) compareOutcome(res server.IngestResult, want ingestOutcome, received int) error {
	if res.Received != received || res.Accepted != want.Accepted ||
		res.Dropped != want.Dropped || res.Rejected != want.Rejected ||
		res.WindowsClosed != want.WindowsClosed || res.CurrentWindow != want.CurrentWindow {
		return s.fail("ingest outcome mismatch: server %+v, model %+v", res, want)
	}
	return nil
}

func (s *sim) opRetry() error {
	if len(s.batches) == 0 {
		return s.opIngest()
	}
	b := s.batches[s.rng.Intn(len(s.batches))]
	s.note("retry %s", b.id)
	res := s.srv.IngestBatch(b.id, b.records)
	if res.Deduplicated {
		// The recorded outcome must come back unchanged: the batch was
		// applied exactly once.
		got, orig := res, b.outcome
		got.Deduplicated = false
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", orig) {
			return s.fail("dedup replay of %s returned %+v, original %+v", b.id, res, b.outcome)
		}
		return s.cheapCompare()
	}
	// The dedup entry was lost (restart, or evicted from the bounded
	// set): the server re-applied the batch, so the model must too.
	want, err := s.model.ingest(b.id, b.records, faultPlan{})
	if err != nil {
		return err
	}
	if err := s.compareOutcome(res, want, len(b.records)); err != nil {
		return err
	}
	for i := range s.batches {
		if s.batches[i].id == b.id {
			s.batches[i].outcome = res
		}
	}
	return s.cheapCompare()
}

func (s *sim) opFlush() error {
	s.note("flush")
	closed, err := s.srv.Flush()
	if err != nil {
		return s.fail("server flush: %v", err)
	}
	wantClosed, err := s.model.flushWindow()
	if err != nil {
		return err
	}
	if closed != wantClosed {
		return s.fail("flush closed %d windows, model %d", closed, wantClosed)
	}
	return s.cheapCompare()
}

func (s *sim) opSnapshot() error {
	plan := s.pickPlan()
	if plan.walFail != 0 || plan.resetFail {
		plan = faultPlan{} // Snapshot never touches the WAL
	}
	s.note("snapshot fault=%s", plan)
	disarm := s.installPlan(plan)
	err := s.srv.Snapshot()
	disarm()
	if wantErr := plan.snapFail || plan.snapCommitted; (err != nil) != wantErr {
		return s.fail("snapshot error = %v, fault plan %s", err, plan)
	}
	s.model.snapshot(plan)
	return s.cheapCompare()
}

func (s *sim) opRestart() error {
	s.note("restart (graceful)")
	if err := s.srv.Shutdown(); err != nil {
		return s.fail("shutdown: %v", err)
	}
	s.srv = nil
	if err := s.model.shutdown(); err != nil {
		return err
	}
	return s.reopen(0)
}

func (s *sim) opCrash(torn bool) error {
	var garbage int64
	if torn {
		garbage = int64(1 + s.rng.Intn(40))
		buf := make([]byte, garbage)
		s.rng.Read(buf)
		// An unknown frame kind guarantees recovery counts the whole
		// tail as torn (a random first byte could in principle start a
		// valid-looking frame).
		buf[0] = 0xFF
		f, err := os.OpenFile(server.WALPath(s.cfg.serverConfig().SnapshotDir),
			os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("simcheck: tearing WAL: %w", err)
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("simcheck: tearing WAL: %w", err)
		}
		f.Close()
	}
	s.note("crash torn=%d", garbage)
	s.srv.Abort()
	s.srv = nil
	return s.reopen(garbage)
}

// reopen boots a fresh server over the on-disk state and checks the
// recovery report plus full state equality against the model.
func (s *sim) reopen(tornBytes int64) error {
	if err := s.checkLogMarkers(); err != nil {
		return err
	}
	srv, err := server.New(s.cfg.serverConfig())
	if err != nil {
		return fmt.Errorf("simcheck: reopen: %w", err)
	}
	s.srv = srv
	exp, err := s.model.reopen(tornBytes)
	if err != nil {
		return err
	}
	rec := srv.Recovery()
	if rec.SnapshotQuarantined != "" || rec.WALQuarantined != "" || len(rec.SegmentsQuarantined) != 0 {
		return s.fail("recovery quarantined state: %+v", rec)
	}
	if rec.WALRejected != 0 {
		return s.fail("recovery rejected %d WAL records", rec.WALRejected)
	}
	if rec.SnapshotRestored != exp.SnapshotRestored || rec.WALRecords != exp.WALRecords ||
		rec.WALTornBytes != exp.WALTornBytes || rec.WALWindowsClosed != exp.WALWindowsClosed {
		return s.fail("recovery mismatch: server %+v, model %+v", rec, exp)
	}
	// Recorded batches are kept deliberately: the reboot's dedup set
	// holds only the markers the log still does, so a retry of a
	// pre-restart batch exercises both branches of opRetry.
	return s.deepCompare("post-reopen")
}

// checkLogMarkers reads the log a reboot is about to recover and holds
// it to what one commit per acknowledgement promises: a batch's marker
// is in the log exactly when the records it vouches for are, right after
// them — never a marker whose records the log lacks, never a batch's
// records without the marker that makes its retry idempotent. The model
// says where each marker sits among the records (model.durableMarks).
func (s *sim) checkLogMarkers() error {
	data, err := os.ReadFile(server.WALPath(s.cfg.serverConfig().SnapshotDir))
	if err != nil || int64(len(data)) < wal.HeaderLen {
		return nil // no log yet
	}
	frames, _, _ := wal.ScanFrames(data[wal.HeaderLen:]) // a bad frame is where recovery ends the log too
	want, records := s.model.durableMarks, 0
	for i := range frames {
		switch fr := &frames[i]; fr.Kind {
		case wal.FrameRecord:
			records++
		case wal.FrameBatch:
			if len(want) == 0 || want[0] != (logMark{id: fr.Batch.ID, records: records}) {
				return s.fail("recovered log holds the marker of %s after %d records; the model's next markers: %v", fr.Batch.ID, records, want)
			}
			want = want[1:]
		}
	}
	if len(want) > 0 {
		return s.fail("recovered log (%d records) lacks the markers %v", records, want)
	}
	return nil
}
