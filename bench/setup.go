package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/store"
	"graphsig/internal/stream"
)

// batchSize is the records per POST of the bulk ingest phases, the
// default of sigserverd -replay.
const batchSize = 2000

// prefillWindows is the stream the write-side nodes hold before the
// first round: a full ring, as many cold windows behind it as the
// durable node retains, and one open window. From the first round on
// every window close then evicts, compacts and prunes like every later
// one, and the durable node's directories never grow.
func (sz sizing) prefillWindows() int { return ringCapacity + sz.coldWindows + 1 }

// inputs is everything generated from the seed before the system runs.
type inputs struct {
	ds *dataset
	// analytics is a two-window capture over more sources than the
	// serving stream has, for the library-only stage.
	analytics *datagen.EnterpriseData
}

// generateInputs makes both datasets at once, one per core.
func generateInputs(seed int64, sz sizing) (*inputs, error) {
	in := &inputs{}
	done := make(chan error, 1)
	go func() {
		var err error
		in.analytics, err = datagen.GenerateEnterprise(enterpriseConfig(seed, sz.analyticsSources, 2))
		done <- err
	}()
	ds, err := generateDataset(seed, sz.hosts)
	if aerr := <-done; err == nil {
		err = aerr
	}
	in.ds = ds
	return in, err
}

// environment is the system state the rounds start from.
type environment struct {
	// query is read-only during the rounds. It was preloaded past its
	// ring: ringCapacity hot windows and more than coldWindows cold.
	query *node
	// reference holds query's windows with no capacity bound and no
	// cold tier: what the tiered node must answer like.
	reference *store.Store
	// durable is the ingest stage's node, every durable layer on.
	durable *node
	topo    *topology
	// setA and setB are the analytics stage's two windows of signatures.
	setA, setB *core.SignatureSet
}

func (e *environment) close() {
	for _, n := range []*node{e.query, e.durable} {
		if n != nil {
			n.crash()
		}
	}
	if e.topo != nil {
		e.topo.close()
	}
}

// preloadWindows is the stream fed to the query node: its last window
// stays open, the ring keeps ringCapacity, and one spare cold window
// lies beyond the coldWindows a query reaches.
func (sz sizing) preloadWindows() int { return ringCapacity + sz.coldWindows + 2 }

// mixedRecords is the records the paced writer sends in one round.
func (sz sizing) mixedRecords() int {
	return int(sz.mixedSeconds*float64(sz.mixedRate)) / batchSize * batchSize
}

// ingestAll feeds records to a server with no HTTP, in batches large
// enough that per-batch costs (a WAL sync) do not set the pace.
func ingestAll(srv *server.Server, records []netflow.Record) error {
	for _, batch := range chunk(records, 10*batchSize) {
		if res := srv.IngestBatch("", batch); res.Accepted != len(batch) {
			return fmt.Errorf("accepted %d of %d records: %v", res.Accepted, len(batch), res.Errors)
		}
	}
	return nil
}

// setUp builds what the read side starts from setupReps times and
// reports the median as setup_s: booting the query node and preloading
// it through the server's own ingest path until it has spilled into the
// cold tier, and computing the analytics stage's signature sets. That is
// where work moved out of the timed phases (an index built at commit, a
// view built at load) would land. Generating the inputs is not part of
// it; the traced run reports that apart as bench.datagen_s.
//
// The write-side nodes are then booted and filled once, as warm-up.
func (b *bench) setUp(in *inputs) (*environment, error) {
	for w := 0; w < baseWindows; w++ {
		// The ingest slice's small-batch tail and each half of the mixed
		// slice must stay inside one window.
		if n := b.ds.windowLen(w); b.sz.smallBatches*smallBatchSize >= n || b.sz.mixedRecords()/2 >= n {
			return nil, fmt.Errorf("window %d holds %d records: too few for %d small batches or a mixed slice of %d records",
				w, n, b.sz.smallBatches, b.sz.mixedRecords())
		}
	}
	preload := b.ds.stream(0, b.sz.preloadWindows())
	env := &environment{}
	for rep := 0; rep < setupReps; rep++ {
		env.close()
		runtime.GC()
		b.startSlice()
		t0 := time.Now()
		var err error
		if env, err = b.setUpReadSide(in, preload, filepath.Join(b.dir, fmt.Sprintf("setup%d", rep))); err != nil {
			return nil, err
		}
		b.observe("setup_s", time.Since(t0).Seconds(), 1)
	}
	b.reportOverRounds("setup_s")

	// The reference store, the durable node and the cluster are built
	// once, untimed. (One after the other: side by side on the sandbox's
	// two cores, all three allocating, they took longer.)
	if err := b.warmUp(env, preload); err != nil {
		env.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return env, nil
}

func (b *bench) warmUp(env *environment, preload []netflow.Record) error {
	u := graph.NewUniverse()
	sets, err := stream.Run(b.ds.streamConfig(), u, preload)
	if err != nil {
		return err
	}
	sets = sets[:len(sets)-1] // Run flushes the window the node still has open
	if env.reference, err = store.New(store.Config{Capacity: len(sets), Universe: u}); err != nil {
		return err
	}
	for _, set := range sets {
		if err := env.reference.Add(set); err != nil {
			return err
		}
	}

	c := cursor{d: b.ds}
	prefill := c.take(b.ds.windowsLen(0, b.sz.prefillWindows()))
	cfg := durableConfig(b.ds, filepath.Join(b.dir, "durable"))
	// The node keeps as many cold windows as the query node's cold reads
	// reach. Without a bound every round would add segment files, and
	// restart_s and disk_bytes_per_record would measure how long the run
	// had lasted.
	cfg.SegmentRetain = b.sz.coldWindows
	if env.durable, err = bootNode(cfg); err != nil {
		return err
	}
	if err := ingestAll(env.durable.srv, prefill); err != nil {
		return fmt.Errorf("durable node: %w", err)
	}
	return b.fillCluster(env, append(prefill, c.take(b.sz.mixedRecords()/2)...))
}

func (b *bench) setUpReadSide(in *inputs, preload []netflow.Record, dir string) (*environment, error) {
	env := &environment{}
	var err error
	env.query, err = bootNode(server.Config{
		Stream:        b.ds.streamConfig(),
		StoreCapacity: ringCapacity,
		SegmentDir:    filepath.Join(dir, "query-seg"),
	})
	if err != nil {
		return nil, err
	}
	if err := ingestAll(env.query.srv, preload); err != nil {
		env.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	tt := core.TopTalkers{}
	for i, set := range []**core.SignatureSet{&env.setA, &env.setB} {
		w := in.analytics.Windows[i]
		b.rec.timed("core.compute_set", 0, func() {
			*set, err = core.ComputeSet(tt, w, core.DefaultSources(w), 10)
		})
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// fillCluster boots the cluster and gives it the first prefillWindows
// windows of the stream and half a mixed slice more, which puts the
// window boundary in the middle of every round's mixed slice. Each shard
// gets its share directly, split the way the router splits, a window's
// worth at a time: the follower tails shard 0's log, and a primary that
// checkpoints many windows ahead of it prunes the log under its cursor.
func (b *bench) fillCluster(env *environment, records []netflow.Record) error {
	var err error
	if env.topo, err = bootTopology(b.ds, filepath.Join(b.dir, "cluster")); err != nil {
		return err
	}
	ring := env.topo.router.Ring()
	for _, piece := range chunk(records, b.ds.windowLen(0)) {
		parts := make([][]netflow.Record, len(env.topo.shards))
		for _, r := range piece {
			shard := ring.Shard(r.Src)
			parts[shard] = append(parts[shard], r)
		}
		for shard, part := range parts {
			if err := ingestAll(env.topo.shards[shard].srv, part); err != nil {
				return fmt.Errorf("shard %d: %w", shard, err)
			}
		}
		if _, err := env.topo.followerCaughtUp(); err != nil {
			return err
		}
	}
	return nil
}
