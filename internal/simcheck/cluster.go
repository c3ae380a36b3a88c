package simcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stats"
	"graphsig/internal/stream"
)

// ClusterConfig parameterizes one cluster-equivalence simulation: a
// router over N shards and a single reference node consume the same
// RNG-driven schedule, and every read answer must agree bitwise.
type ClusterConfig struct {
	// Seed drives the whole schedule; the same seed replays the same
	// run bit-for-bit.
	Seed int64
	// Ops is the schedule length.
	Ops int
	// Shards is the topology width (default 2).
	Shards int
	// Labels sizes the host pool (default 18).
	Labels int
	// Capacity bounds every store ring — shards and reference alike
	// (default 6).
	Capacity int
	// K is the signature length (default 4).
	K int
	// WindowSize is the aggregation window (default 5m of logical time).
	WindowSize time.Duration
	// Faults, when true, injects the failover schedule: shard 0 gets a
	// WAL-shipping follower, its primary is killed halfway through the
	// run, reads must keep answering through the follower, and the
	// router's prober promotes it — after which the rest of the schedule
	// (including a dedup-replay of the last pre-kill batch) must stay
	// bitwise equal to the reference.
	Faults bool
	// Dir is the scratch directory for shard 0's durability when Faults
	// is set (WAL, snapshots, the follower's promote home).
	Dir string
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Labels == 0 {
		c.Labels = 18
	}
	if c.Capacity == 0 {
		c.Capacity = 6
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.WindowSize == 0 {
		c.WindowSize = 5 * time.Minute
	}
	return c
}

// streamConfig pins the window origin: shards learn origins from their
// own first record, so without an explicit origin each shard would
// anchor a different window grid and nothing downstream could line up
// (the deployment requirement documented in DESIGN.md §12).
func (c ClusterConfig) streamConfig() stream.Config {
	return stream.Config{
		WindowSize: c.WindowSize,
		Origin:     simT0,
		TCPOnly:    true,
		K:          c.K,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Depth: 2, Width: 64, Candidates: 16, Seed: 9},
	}
}

func (c ClusterConfig) serverConfig() server.Config {
	return server.Config{
		Stream:        c.streamConfig(),
		StoreCapacity: c.Capacity,
		WatchMaxDist:  server.Float64(0.9),
		DedupCap:      512,
	}
}

// csim is one cluster run's mutable state.
type csim struct {
	cfg ClusterConfig
	rng *stats.RNG

	router *cluster.Router
	ref    *server.Client

	clock    time.Time
	labels   []string
	barriers []string // one label owned by each shard, for window alignment
	batchN   int
	watchN   int
	trace    []string
	op       int

	// Fault-schedule state (Faults only).
	shardSrv    []*server.Server
	shardTS     []*httptest.Server
	follower    *cluster.Follower
	faulted     bool
	lastID      string           // last successfully ingested batch ID...
	lastRecords []netflow.Record // ...and its records, for the dedup replay
}

// RunCluster executes a cluster-equivalence simulation and returns nil
// or a *Divergence (any other error type signals a harness failure).
// Unlike Run it needs no scratch directory: the topology is memory-only
// — durability is Run's and the follower tests' concern; this harness
// checks that routing and scatter-gather merging are invisible.
func RunCluster(cfg ClusterConfig) error {
	cfg = cfg.withDefaults()
	s := &csim{cfg: cfg, rng: stats.NewRNG(cfg.Seed), clock: simT0}
	for i := 0; i < cfg.Labels; i++ {
		s.labels = append(s.labels, fmt.Sprintf("h%02d", i))
	}

	if cfg.Faults && cfg.Dir == "" {
		return fmt.Errorf("simcheck: Faults requires a scratch Dir")
	}

	var shards [][]string
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.serverConfig()
		if cfg.Faults && i == 0 {
			// The shard that will fail: durable and replicating.
			scfg.SnapshotDir = filepath.Join(cfg.Dir, "shard0")
			scfg.Replicate = true
		}
		srv, err := server.New(scfg)
		if err != nil {
			return fmt.Errorf("simcheck: shard %d: %w", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Abort()
		s.shardSrv = append(s.shardSrv, srv)
		s.shardTS = append(s.shardTS, ts)
		shards = append(shards, []string{ts.URL})
	}
	refSrv, err := server.New(cfg.serverConfig())
	if err != nil {
		return fmt.Errorf("simcheck: reference: %w", err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	defer refSrv.Abort()
	s.ref = server.NewClient(refTS.URL)

	rcfg := cluster.Config{Shards: shards, Timeout: 30 * time.Second}
	if cfg.Faults {
		f, err := cluster.NewFollower(cluster.FollowerConfig{
			Primary:       []string{shards[0][0]},
			Stream:        cfg.streamConfig(),
			StoreCapacity: cfg.Capacity,
			WatchMaxDist:  server.Float64(0.9),
			Poll:          5 * time.Millisecond,
			ChunkBytes:    2048,
			PromoteDir:    filepath.Join(cfg.Dir, "promoted"),
		})
		if err != nil {
			return fmt.Errorf("simcheck: follower: %w", err)
		}
		f.Start()
		defer f.Stop()
		fts := httptest.NewServer(f.FollowerHandler())
		defer fts.Close()
		s.follower = f
		rcfg.Followers = make([][]string, cfg.Shards)
		rcfg.Followers[0] = []string{fts.URL}
		rcfg.Health = &cluster.HealthConfig{
			Interval:      time.Hour, // the schedule drives ProbeOnce
			FailThreshold: 3,
			Cooldown:      time.Millisecond,
			AutoPromote:   time.Millisecond,
			Timeout:       5 * time.Second,
		}
		rcfg.MaxRetries = -1 // a killed shard should fail fast, not backoff
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		return fmt.Errorf("simcheck: router: %w", err)
	}
	s.router = rt

	// One barrier label per shard, deterministically derived from the
	// ring so every shard's pipeline can be advanced to the common
	// current window before a comparison (window close is lazy per
	// shard: a shard that saw no recent record still sits in an old
	// window with its signatures unextracted).
	for shard := 0; shard < cfg.Shards; shard++ {
		for i := 0; ; i++ {
			label := fmt.Sprintf("barrier-%02d", i)
			if rt.Ring().Shard(label) == shard {
				s.barriers = append(s.barriers, label)
				break
			}
		}
	}

	for s.op = 0; s.op < cfg.Ops; s.op++ {
		if cfg.Faults && !s.faulted && s.op == cfg.Ops/2 {
			if err := s.failover(); err != nil {
				return err
			}
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	return s.compareHits() // final read-path check
}

// failover is the injected fault: align windows, wait for the follower
// to hold everything shard 0 durably logged, kill shard 0's primary,
// walk the prober to Down, check reads answer fully through the
// follower, let auto-promotion restore writes, and replay the last
// pre-kill batch ID to prove the dedup set survived the failover.
func (s *csim) failover() error {
	s.faulted = true
	if err := s.barrier(); err != nil {
		return err
	}
	s.note("failover: killing shard 0 primary")

	// Catch-up barrier against the primary's durable cursor.
	pc := server.NewClient(s.shardTS[0].URL)
	rs, err := pc.ReplicationStatus()
	if err != nil {
		return fmt.Errorf("simcheck: replication status: %w", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.follower.Stats()
		if st.Fatal != "" {
			return fmt.Errorf("simcheck: follower died: %s", st.Fatal)
		}
		if st.Gen > rs.Gen || (st.Gen == rs.Gen && st.Offset >= rs.DurableSize) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simcheck: follower never reached (%d,%d): %+v", rs.Gen, rs.DurableSize, st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.shardTS[0].Close()
	s.shardSrv[0].Abort()
	p := s.router.Prober()
	for i := 0; i < 3; i++ {
		p.ProbeOnce()
	}

	// Reads must keep answering at full width through the follower, and
	// stay bitwise equal to the reference (windows are aligned and
	// nothing has mutated since the barrier).
	label := ""
	for _, l := range s.labels {
		if s.router.Ring().Shard(l) == 0 {
			label = l
			break
		}
	}
	if label == "" {
		return fmt.Errorf("simcheck: no label owned by shard 0")
	}
	req := server.SearchRequest{Label: label, K: 5}
	routed, rerr := s.router.Search(context.Background(), req)
	refRes, ferr := s.ref.Search(req)
	if rerr != nil || ferr != nil {
		if rsc, fsc := server.Status(rerr), server.Status(ferr); rsc != fsc {
			return s.fail("failover search %s: router status %d (%v), reference status %d (%v)",
				label, rsc, rerr, fsc, ferr)
		}
	} else {
		if routed.ShardsOK != routed.ShardsTotal {
			return s.fail("failover search answered %d/%d shards, want full width via follower",
				routed.ShardsOK, routed.ShardsTotal)
		}
		if len(routed.StaleShards) != 1 || routed.StaleShards[0].Shard != 0 {
			return s.fail("failover search stale_shards %+v, want shard 0", routed.StaleShards)
		}
		if ja, jb, ok := jsonEq(routed.Hits, refRes.Hits); !ok {
			return s.fail("failover search %s hits:\n  router:    %s\n  reference: %s", label, ja, jb)
		}
	}

	// Promotion restores writes.
	time.Sleep(5 * time.Millisecond) // grace period
	p.ProbeOnce()
	if !s.follower.Stats().Promoted {
		return fmt.Errorf("simcheck: follower not promoted after grace period")
	}
	s.note("failover: follower promoted")

	// Exactly-once across the failover: the last pre-kill batch replayed
	// under its original ID must be absorbed by the promoted node's
	// replicated dedup set with matching accounting (ingestBoth compares;
	// the reference dedups it too).
	if s.lastID != "" {
		s.note("failover: dedup replay of %s", s.lastID)
		routed, rerr := s.router.Ingest(context.Background(), s.lastID, s.lastRecords)
		refRes, ferr := s.ref.IngestBatch(s.lastID, s.lastRecords)
		if rerr != nil || ferr != nil {
			return fmt.Errorf("simcheck: dedup replay %s: router %v, reference %v", s.lastID, rerr, ferr)
		}
		if !routed.Deduplicated {
			return s.fail("dedup replay %s was not deduplicated by the promoted topology", s.lastID)
		}
		if routed.Accepted != refRes.Accepted || routed.Dropped != refRes.Dropped ||
			routed.Rejected != refRes.Rejected {
			return s.fail("dedup replay %s accounting: router %+v, reference %+v",
				s.lastID, routed.IngestResult, refRes)
		}
	}
	return nil
}

func (s *csim) fail(format string, args ...any) error {
	return &Divergence{
		Seed:   s.cfg.Seed,
		Op:     s.op,
		Detail: fmt.Sprintf(format, args...),
		Trace:  append([]string(nil), s.trace...),
	}
}

func (s *csim) note(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf("op %4d: ", s.op)+fmt.Sprintf(format, args...))
	if over := len(s.trace) - traceLen; over > 0 {
		s.trace = append(s.trace[:0:0], s.trace[over:]...)
	}
}

func (s *csim) step() error {
	switch r := s.rng.Float64(); {
	case r < 0.60:
		return s.opIngest()
	case r < 0.75:
		return s.compareSearch()
	case r < 0.85:
		return s.compareHistory()
	case r < 0.92:
		return s.opWatchlistAdd()
	default:
		return s.compareHits()
	}
}

// nextRecord draws one flow record on a strictly monotone clock.
// Regressions are excluded on purpose: the single node rejects a
// record against the global current window while a shard rejects
// against its own (possibly older) one, so backdated records are the
// one ingest class whose accounting legitimately differs (DESIGN.md
// §12 documents this as an ordering requirement of cluster mode).
func (s *csim) nextRecord() netflow.Record {
	if s.rng.Float64() < 0.05 {
		s.clock = s.clock.Add(time.Duration(1+s.rng.Intn(2)) * s.cfg.WindowSize)
	} else {
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

// ingestBoth sends the same batch through the router and the reference
// node and checks the per-batch accounting that must agree. Windows
// closed and current window are per-process facts (each shard closes
// windows on its own record arrivals), so they are deliberately not
// compared here — window alignment is barrier()'s job.
func (s *csim) ingestBoth(records []netflow.Record, kind string) error {
	s.batchN++
	id := fmt.Sprintf("%s-%06d", kind, s.batchN)
	s.note("%s %s n=%d clock=%s", kind, id, len(records), s.clock.Format("15:04:05"))
	routed, rerr := s.router.Ingest(context.Background(), id, records)
	refRes, ferr := s.ref.IngestBatch(id, records)
	if rerr != nil || ferr != nil {
		return fmt.Errorf("simcheck: ingest %s: router %v, reference %v", id, rerr, ferr)
	}
	if routed.Received != refRes.Received || routed.Accepted != refRes.Accepted ||
		routed.Dropped != refRes.Dropped || routed.Rejected != refRes.Rejected {
		return s.fail("ingest %s accounting: router %+v, reference %+v", id, routed.IngestResult, refRes)
	}
	s.lastID, s.lastRecords = id, append([]netflow.Record(nil), records...)
	return nil
}

func (s *csim) opIngest() error {
	n := 1 + s.rng.Intn(10)
	records := make([]netflow.Record, n)
	for i := range records {
		records[i] = s.nextRecord()
	}
	return s.ingestBoth(records, "batch")
}

// barrier advances every shard (and the reference) to the same current
// window by ingesting one record per shard-owned barrier label at the
// current clock. Afterwards the set of archived windows is identical
// everywhere, which is the precondition for bitwise read comparison.
func (s *csim) barrier() error {
	records := make([]netflow.Record, len(s.barriers))
	for i, label := range s.barriers {
		records[i] = netflow.Record{
			Src: label, Dst: "barrier-sink", Start: s.clock,
			Duration: time.Second, Sessions: 1, Bytes: 1, Packets: 1,
			Proto: netflow.TCP,
		}
	}
	return s.ingestBoth(records, "barrier")
}

// jsonEq compares two wire values by canonical JSON bytes.
func jsonEq(a, b any) (string, string, bool) {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja), string(jb), string(ja) == string(jb)
}

func (s *csim) compareSearch() error {
	if err := s.barrier(); err != nil {
		return err
	}
	req := server.SearchRequest{
		Label: s.labels[s.rng.Intn(len(s.labels))],
		K:     1 + s.rng.Intn(6),
	}
	if s.rng.Bernoulli(0.3) {
		req.LastWindows = 1 + s.rng.Intn(3)
	}
	s.note("search label=%s k=%d last=%d", req.Label, req.K, req.LastWindows)
	routed, rerr := s.router.Search(context.Background(), req)
	refRes, ferr := s.ref.Search(req)
	if rerr != nil || ferr != nil {
		// Both sides must refuse the same queries the same way (e.g. a
		// label with no archived signature yet).
		if rs, fs := server.Status(rerr), server.Status(ferr); rs != fs {
			return s.fail("search %s: router status %d (%v), reference status %d (%v)",
				req.Label, rs, rerr, fs, ferr)
		}
		return nil
	}
	if routed.ShardsOK != routed.ShardsTotal {
		return s.fail("search %s degraded with healthy shards: %d/%d", req.Label, routed.ShardsOK, routed.ShardsTotal)
	}
	if ja, jb, ok := jsonEq(routed.Hits, refRes.Hits); !ok {
		return s.fail("search %s hits:\n  router:    %s\n  reference: %s", req.Label, ja, jb)
	}
	if routed.Distance != refRes.Distance {
		return s.fail("search %s distance %q vs %q", req.Label, routed.Distance, refRes.Distance)
	}
	return nil
}

func (s *csim) compareHistory() error {
	if err := s.barrier(); err != nil {
		return err
	}
	label := s.labels[s.rng.Intn(len(s.labels))]
	s.note("history label=%s", label)
	routed, rerr := s.router.History(context.Background(), server.HistoryRequest{Label: label})
	refRes, ferr := s.ref.History(label)
	if rerr != nil || ferr != nil {
		if rs, fs := server.Status(rerr), server.Status(ferr); rs != fs {
			return s.fail("history %s: router status %d (%v), reference status %d (%v)",
				label, rs, rerr, fs, ferr)
		}
		return nil
	}
	if ja, jb, ok := jsonEq(routed, refRes); !ok {
		return s.fail("history %s:\n  router:    %s\n  reference: %s", label, ja, jb)
	}
	return nil
}

func (s *csim) opWatchlistAdd() error {
	if err := s.barrier(); err != nil {
		return err
	}
	// A handful of individuals is plenty: every archived entry is
	// screened at each window close on every shard, and an unbounded
	// archive would overflow the servers' bounded hit logs differently
	// on each side.
	if s.watchN >= 4 {
		return s.compareHits()
	}
	label := s.labels[s.rng.Intn(len(s.labels))]
	req := server.WatchlistAddRequest{
		Individual: fmt.Sprintf("ind-%02d", s.watchN),
		Label:      label,
	}
	s.note("watchlist add %s label=%s", req.Individual, label)
	routed, rerr := s.router.WatchlistAdd(context.Background(), req)
	refRes, ferr := s.ref.WatchlistAdd(req)
	if rerr != nil || ferr != nil {
		if (rerr == nil) != (ferr == nil) {
			return s.fail("watchlist add %s: router %v, reference %v", label, rerr, ferr)
		}
		return nil // both refused (label not archived yet)
	}
	s.watchN++
	if routed.Archived != refRes.Archived {
		return s.fail("watchlist add %s archived %d vs %d", label, routed.Archived, refRes.Archived)
	}
	return nil
}

func (s *csim) compareHits() error {
	if err := s.barrier(); err != nil {
		return err
	}
	s.note("watchlist hits")
	routed, rerr := s.router.WatchlistHits(context.Background())
	refRes, ferr := s.ref.WatchlistHits()
	if rerr != nil || ferr != nil {
		return fmt.Errorf("simcheck: watchlist hits: router %v, reference %v", rerr, ferr)
	}
	// The router merges under (window, label, individual, archived
	// window); the reference log is chronological. Chronological order
	// is window-major and the reference screens one label set in
	// label-hash-independent store order, so sort it the router's way.
	ref := make([]server.WatchHitJSON, len(refRes.Hits))
	copy(ref, refRes.Hits)
	sortWatchHits(ref)
	if ja, jb, ok := jsonEq(routed.Hits, ref); !ok {
		return s.fail("watchlist hits:\n  router:    %s\n  reference: %s", ja, jb)
	}
	return nil
}

// sortWatchHits applies the router's merge order.
func sortWatchHits(hits []server.WatchHitJSON) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Individual != b.Individual {
			return a.Individual < b.Individual
		}
		return a.ArchivedWindow < b.ArchivedWindow
	})
}
