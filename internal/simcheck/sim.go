package simcheck

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"graphsig/internal/cluster"
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

// The fixed shape of every run: a pool of 18 hosts, signatures of
// length 4, windows of 5 minutes of logical time.
const (
	simLabels  = 18
	simK       = 4
	simWindow  = 5 * time.Minute
	watchLimit = 0.9 // every node's WatchMaxDist
)

// Config parameterizes one simulation run.
type Config struct {
	// Seed drives the whole schedule; the same seed replays the same
	// run bit-for-bit.
	Seed int64
	// Ops is the schedule length.
	Ops int
	// Dir is the scratch directory for a node's snapshot + WAL, or for
	// the failing shard and its follower (required; give every run a
	// fresh one: reused state makes the model diverge).
	Dir string
	// Capacity bounds every store ring (default 5).
	Capacity int
	// SketchWidth is the cells per row of the streaming sketch (default
	// 8: a sparse source read through so few would not come out exact,
	// model.closeExact).
	SketchWidth int
	// ExplicitOrigin pins the pipeline origin to simT0; otherwise the
	// origin is learned from the first accepted record and restored via
	// the WAL across restarts. A router target needs it, or each shard
	// would anchor its own window grid (DESIGN.md §12).
	ExplicitOrigin bool
	// Node only: Faults interleaves failpoint injection (failed fsyncs,
	// snapshot saves failing before or after their commit, failed WAL
	// truncation) into ingest and snapshot ops; Restarts interleaves
	// graceful restarts, crashes, and crashes with torn WAL tails;
	// CrashInside turns some of those crashes into ones inside an ingest,
	// after its first checkpoint, each followed by the reboot and the
	// client's retry (off, a seed keeps the schedule it had before the op
	// existed).
	Faults, Restarts, CrashInside bool
	// Segments (node only) attaches a cold segment tier under Dir: the
	// ring stays at Capacity while compaction moves evictions into
	// segment files, and the model turns unbounded — every window ever
	// closed must stay servable across crashes, and an injected
	// compaction failure must defer eviction, never lose a window.
	Segments bool
	// Shards, when set, makes the target a cluster router over that many
	// in-process shards: it must answer as the model of one node holding
	// the whole stream does.
	Shards int
	// Failover gives shard 0 a WAL-shipping follower and kills its
	// primary halfway through the run: a read must answer at full width
	// through the follower, the prober promotes it, and a replay of the
	// last batch sent before the kill must come back deduplicated.
	Failover bool
}

func (c Config) withDefaults() Config {
	c.Capacity = cmp.Or(c.Capacity, 5)
	c.SketchWidth = cmp.Or(c.SketchWidth, 8)
	return c
}

// streamConfig is the pipeline configuration shared (by value) between
// the real nodes and the model's mirror pipeline.
func (c Config) streamConfig() stream.Config {
	sc := stream.Config{
		WindowSize: simWindow,
		TCPOnly:    true, // exercise the dropped-record path
		K:          simK,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Depth: 2, Width: c.SketchWidth, Candidates: 16, Seed: 9},
	}
	if c.ExplicitOrigin {
		sc.Origin = simT0
	}
	return sc
}

// serverConfig is every node's configuration, the durable parts aside.
func (c Config) serverConfig() server.Config {
	return server.Config{Stream: c.streamConfig(), StoreCapacity: c.Capacity, WatchMaxDist: server.Float64(watchLimit), DedupCap: 512}
}

// nodeConfig is the single node's: durable under Dir, and tiered with
// Segments.
func (c Config) nodeConfig() server.Config {
	scfg := c.serverConfig()
	scfg.SnapshotDir = filepath.Join(c.Dir, "snap")
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

// Divergence is a model/target disagreement: the seed and op index
// replay it exactly (same Config, same Seed, Ops ≥ Op+1), and Trace
// holds the ops leading up to it.
type Divergence struct {
	Seed   int64
	Op     int
	Detail string
	Trace  []string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("simcheck: seed %d diverged at op %d: %s\ntrace (last %d ops):\n  %s\n",
		d.Seed, d.Op, d.Detail, len(d.Trace), strings.Join(d.Trace, "\n  "))
}

// sentBatch remembers an ingested batch so a later op can retry it and
// check the dedup contract.
type sentBatch struct {
	id      string
	records []netflow.Record
	outcome server.IngestResult
}

// sim is one run's state. Reads go through api, writes through ingest;
// srv is a node target's node, router a cluster target's router.
type sim struct {
	cfg   Config
	rng   *stats.RNG
	model *model

	api    server.API
	ingest func(id string, records []netflow.Record) (server.IngestResult, error)
	srv    *server.Server
	router *cluster.Router
	stops  []func() // the target's teardown, run newest first

	// A router target's topology (cluster.go): one barrier label owned by
	// each shard, and under Failover shard 0's address, its kill switch
	// and its follower.
	barriers []string
	shard0   string
	kill     func()
	follower *cluster.Follower

	clock       time.Time
	labels      []string
	batchN      int
	individuals int         // watch adds acknowledged
	batches     []sentBatch // recent batches for retry ops (bounded ring)
	trace       []string
	op          int
}

// Run executes a simulation and returns nil or a *Divergence (any
// other error type signals a harness/IO failure, not a model
// disagreement).
func Run(cfg Config) error {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Dir == "":
		return fmt.Errorf("simcheck: Config.Dir is required")
	case cfg.Shards > 0 && (!cfg.ExplicitOrigin || cfg.Faults || cfg.Restarts || cfg.CrashInside || cfg.Segments):
		return fmt.Errorf("simcheck: a router target needs ExplicitOrigin and runs no node-only schedule")
	case cfg.Failover && cfg.Shards == 0:
		return fmt.Errorf("simcheck: Failover needs Shards")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("simcheck: %w", err)
	}
	m, err := newModel(cfg)
	if err != nil {
		return err
	}
	s := &sim{cfg: cfg, rng: stats.NewRNG(cfg.Seed), model: m, clock: simT0}
	for i := 0; i < simLabels; i++ {
		s.labels = append(s.labels, fmt.Sprintf("h%02d", i))
	}
	defer func() {
		for i := len(s.stops) - 1; i >= 0; i-- {
			s.stops[i]()
		}
	}()
	if cfg.Shards > 0 {
		err = s.startCluster()
	} else {
		err = s.boot()
		s.ingest = func(id string, records []netflow.Record) (server.IngestResult, error) {
			return s.srv.IngestBatch(id, records), nil
		}
		s.stops = append(s.stops, func() {
			if s.srv != nil {
				s.srv.Abort()
			}
		})
	}
	if err != nil {
		return err
	}
	for s.op = 0; s.op < cfg.Ops; s.op++ {
		if cfg.Failover && s.op == cfg.Ops/2 {
			if err := s.failover(); err != nil {
				return err
			}
		}
		if err := s.step(); err != nil {
			return err
		}
		if s.op%16 == 15 {
			if err := s.deepCompare("periodic"); err != nil {
				return err
			}
		}
	}
	if err := s.opHits(); err != nil {
		return err
	}
	return s.deepCompare("final")
}

// boot starts the node over what Dir holds.
func (s *sim) boot() error {
	srv, err := server.New(s.cfg.nodeConfig())
	if err != nil {
		return fmt.Errorf("simcheck: server: %w", err)
	}
	s.srv, s.api = srv, srv
	return nil
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
	cfg.Dir, cfg.Ops = sub, div.Op+1
	var d *Divergence
	if err := Run(cfg); err != nil && !errors.As(err, &d) {
		return nil, err
	}
	return d, nil
}

// fail builds a Divergence for the current op.
func (s *sim) fail(format string, args ...any) error {
	return &Divergence{Seed: s.cfg.Seed, Op: s.op, Detail: fmt.Sprintf(format, args...), Trace: slices.Clone(s.trace)}
}

// note appends an op description to the bounded trace.
func (s *sim) note(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf("op %4d: ", s.op)+fmt.Sprintf(format, args...))
	if over := len(s.trace) - traceLen; over > 0 {
		s.trace = slices.Delete(s.trace, 0, over)
	}
}

// step runs one scheduled operation and its per-op invariant checks.
func (s *sim) step() error {
	switch r := s.rng.Float64(); {
	case r >= 0.90 && !s.cfg.Restarts, r >= 0.84 && s.router != nil, r >= 0.70 && r < 0.80 && s.cfg.Restarts:
		// What the target does not run folds into ingest: restarts
		// without Restarts, snapshots and flushes on a router, and watch
		// ops across reboots, which empty a node's memory-only hit log.
		return s.opIngest()
	case r < 0.45:
		return s.opIngest()
	case r < 0.57:
		return s.opSearch()
	case r < 0.61:
		return s.opBatchSearch()
	case r < 0.70:
		return s.opHistory()
	case r < 0.75:
		return s.opWatchAdd()
	case r < 0.80:
		return s.opHits()
	case r < 0.84:
		return s.opRetry()
	case r < 0.88:
		return s.opSnapshot()
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
		return noFault
	}
	f := s.rng.Float64()
	for i, below := range []float64{0.20, 0.30, 0.40, 0.70, 0.85} { // walFailAll .. snapCommitted
		if f < below {
			return walFailAll + faultPlan(i)
		}
	}
	if f < 0.92 && s.cfg.Segments {
		return segFail
	}
	return resetFail
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
	switch plan {
	case walFailAll, walFailFirst, walFailRest:
		commit := 0 // every WAL commit hits wal.sync once
		fault.Set("wal.sync", func() error {
			commit++
			if plan.walFails(commit - 1) {
				return errInjected
			}
			return nil
		})
	case snapFail:
		// Vary which stage of the save dies; the manifest point, armed
		// behind, kills a save with no new window or label to write.
		name := []string{"store.save.window", "store.save.window.commit", "store.save.labels", "store.save.labels.commit",
			"store.save.manifest"}[s.rng.Intn(5)]
		fault.Set(name, hook)
		fault.Set("store.save.manifest", hook)
	case snapCommitted:
		fault.Set("store.save.sweep", hook)
	case segFail:
		// Die cleanly or tear mid-commit (a stale .tmp for the next boot
		// to sweep); either way eviction defers and no window is lost.
		name := []string{"segment.write", "segment.commit"}[s.rng.Intn(2)]
		fault.Set(name, hook)
	case resetFail:
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
	// or, on a node only, a step back past a window boundary (rejected):
	// a shard rejects against its own current window, which may trail
	// the stream's (DESIGN.md §12 makes ordering a cluster requirement).
	switch v := s.rng.Float64(); {
	case v < 0.05:
		s.clock = s.clock.Add(time.Duration(1+s.rng.Intn(3)) * simWindow)
	case v < 0.08 && s.router == nil:
		s.clock = s.clock.Add(-simWindow / 2)
	default:
		s.clock = s.clock.Add(time.Duration(s.rng.Intn(20)) * time.Second)
	}
	src, dst := s.pick(), s.pick()
	for dst == src {
		dst = s.pick()
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

// pick draws a host of the pool.
func (s *sim) pick() string { return s.labels[s.rng.Intn(len(s.labels))] }

// nextBatch draws the records of one ingest op.
func (s *sim) nextBatch() []netflow.Record {
	records := make([]netflow.Record, 1+s.rng.Intn(12))
	for i := range records {
		records[i] = s.nextRecord()
	}
	return records
}

// nextID names the next batch.
func (s *sim) nextID(kind string) string {
	s.batchN++
	return fmt.Sprintf("%s-%06d", kind, s.batchN)
}

func (s *sim) opIngest() error {
	records := s.nextBatch()
	plan := s.pickPlan()
	id := s.nextID("batch")
	s.note("ingest %s n=%d fault=%s clock=%s", id, len(records), plan, s.clock.Format("15:04:05"))

	disarm := s.installPlan(plan)
	res, err := s.ingest(id, records)
	disarm()
	if err != nil {
		return fmt.Errorf("simcheck: ingest %s: %w", id, err)
	}
	return s.checkIngested(id, records, res, plan)
}

// checkIngested holds the answer to a batch the target had not seen to
// the model's, and remembers the batch for a later retry op.
func (s *sim) checkIngested(id string, records []netflow.Record, res server.IngestResult, plan faultPlan) error {
	want, err := s.model.ingest(id, records, plan, false)
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
// the batch's end, so no marker for the batch exists. The node reboots
// and the client, which got no answer, retries the batch: it must
// apply, once. A batch that closes no window runs as a plain ingest.
// A failpoint hook inside the log runs under its lock and cannot close
// it, so the node dies the way its disk sees it: from the crash point on
// every write it attempts fails, and it is aborted once the call returns.
func (s *sim) opCrashInside() error {
	records := s.nextBatch()
	id := s.nextID("batch")
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
		return s.checkIngested(id, records, res, noFault)
	}

	s.srv.Abort()
	s.srv = nil
	if _, err := s.model.ingest(id, records, noFault, true); err != nil {
		return err
	}
	if err := s.reopen(0); err != nil {
		return err
	}
	s.note("retry %s after the crash inside it", id)
	return s.checkIngested(id, records, s.srv.IngestBatch(id, records), noFault)
}

// compareOutcome checks an IngestResult against the model's prediction;
// of a router's only the accounting, since a shard closes windows as its
// own records arrive.
func (s *sim) compareOutcome(res server.IngestResult, want ingestOutcome, received int) error {
	got := ingestOutcome{Accepted: res.Accepted, Dropped: res.Dropped, Rejected: res.Rejected,
		WindowsClosed: res.WindowsClosed, CurrentWindow: res.CurrentWindow}
	if s.router != nil {
		got.WindowsClosed, got.CurrentWindow = want.WindowsClosed, want.CurrentWindow
	}
	if res.Received != received || got != want {
		return s.fail("ingest outcome mismatch: target %+v, model %+v", res, want)
	}
	return nil
}

func (s *sim) opRetry() error {
	if len(s.batches) == 0 {
		return s.opIngest()
	}
	b := s.batches[s.rng.Intn(len(s.batches))]
	s.note("retry %s", b.id)
	return s.retry(b, false)
}

// retry sends b again under its ID: deduplicated, with the recorded
// outcome. A node that lost the entry (a restart, or eviction from the
// bounded set) re-applies it, and so must the model, unless mustDedup.
func (s *sim) retry(b sentBatch, mustDedup bool) error {
	res, err := s.ingest(b.id, b.records)
	if err != nil {
		return fmt.Errorf("simcheck: retry %s: %w", b.id, err)
	}
	if res.Deduplicated {
		got := res
		got.Deduplicated = false
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", b.outcome) {
			return s.fail("dedup replay of %s returned %+v, original %+v", b.id, res, b.outcome)
		}
		return s.cheapCompare()
	}
	if mustDedup {
		return s.fail("replay of %s was not deduplicated: %+v", b.id, res)
	}
	want, err := s.model.ingest(b.id, b.records, noFault, false)
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
	switch plan {
	case walFailAll, walFailFirst, walFailRest, resetFail:
		plan = noFault // Snapshot never touches the WAL
	}
	s.note("snapshot fault=%s", plan)
	disarm := s.installPlan(plan)
	err := s.srv.Snapshot()
	disarm()
	if wantErr := plan == snapFail || plan == snapCommitted; (err != nil) != wantErr {
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
		f, err := os.OpenFile(server.WALPath(s.cfg.nodeConfig().SnapshotDir), os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			_, err = f.Write(buf)
			err = errors.Join(err, f.Close())
		}
		if err != nil {
			return fmt.Errorf("simcheck: tearing WAL: %w", err)
		}
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
	if err := s.boot(); err != nil {
		return err
	}
	exp, err := s.model.reopen(tornBytes)
	if err != nil {
		return err
	}
	rec := s.srv.Recovery()
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
	// Recorded batches are kept: the reboot's dedup set holds only the
	// markers the log still does, so retries take both branches.
	return s.deepCompare("post-reopen")
}

// checkLogMarkers holds the log a reboot is about to recover to one
// commit per acknowledgement: a batch's marker is in it exactly when
// its records are, right after them, where model.durableMarks says.
func (s *sim) checkLogMarkers() error {
	data, err := os.ReadFile(server.WALPath(s.cfg.nodeConfig().SnapshotDir))
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
