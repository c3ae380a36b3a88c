package main

import (
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"graphsig/internal/cluster"
	"graphsig/internal/server"
)

// ringCapacity is the hot ring of every node: small enough that the
// streams below spill into the cold tier.
const ringCapacity = 8

// node is one sigserverd-equivalent hosted in the harness process and
// reached over loopback HTTP, as internal/cluster's tests host theirs.
type node struct {
	cfg server.Config
	srv *server.Server
	ts  *httptest.Server
	cl  *server.Client
}

func bootNode(cfg server.Config) (*node, error) {
	if cfg.SnapshotDir != "" { // the WAL is created beside it
		if err := os.MkdirAll(filepath.Dir(cfg.SnapshotDir), 0o755); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return serve(cfg, srv), nil
}

// serve puts a booted server behind a loopback listener.
func serve(cfg server.Config, srv *server.Server) *node {
	ts := httptest.NewServer(srv.Handler())
	return &node{cfg: cfg, srv: srv, ts: ts, cl: newClient(ts.URL)}
}

// newClient is the typed client with retries off: a failed request must
// count as failed, not hide in a retried latency.
func newClient(base string) *server.Client {
	cl := server.NewClient(base)
	cl.MaxRetries = -1
	return cl
}

// crash stops the node the way kill -9 would: nothing is flushed or
// saved, only file handles are released.
func (n *node) crash() {
	n.ts.Close()
	n.srv.Abort()
}

// durableConfig is a node with every durable layer on: snapshot, WAL
// beside it, and the cold-tier segment directory.
func durableConfig(d *dataset, dir string) server.Config {
	return server.Config{
		Stream:        d.streamConfig(),
		StoreCapacity: ringCapacity,
		SnapshotDir:   filepath.Join(dir, "snap"),
		SegmentDir:    filepath.Join(dir, "seg"),
	}
}

// topology is the cluster-mixed stage's system: a router over two
// durable replicating shards (snapshot and WAL) and one follower tailing
// shard 0. The shards keep no cold tier: the router resolves a label
// query with an unbounded history read of the owning shard, which with
// segments behind the ring grows with every window archived (33 ms at
// ten cold windows of 1600 hosts against 4 ms with none) and would make
// the routed metrics a function of how long the run has lasted.
type topology struct {
	shards   []*node
	follower *cluster.Follower
	router   *cluster.Router
	rts      *httptest.Server
	cl       *server.Client
}

func bootTopology(d *dataset, dir string) (*topology, error) {
	t := &topology{}
	var urls [][]string
	for i := 0; i < 2; i++ {
		cfg := durableConfig(d, filepath.Join(dir, fmt.Sprintf("shard%d", i)))
		cfg.SegmentDir = ""
		cfg.Replicate = true
		cfg.Node = &server.Identity{Role: "primary", Shard: i, Shards: 2}
		n, err := bootNode(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, n)
		urls = append(urls, []string{n.ts.URL})
	}
	f, err := cluster.NewFollower(cluster.FollowerConfig{
		Primary:       urls[0],
		Stream:        d.streamConfig(),
		StoreCapacity: ringCapacity,
		Poll:          20 * time.Millisecond,
		Node:          &server.Identity{Role: "follower", Shard: 0, Shards: 2},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	f.Start()
	t.follower = f
	t.router, err = cluster.NewRouter(cluster.Config{Shards: urls, Timeout: 30 * time.Second, MaxRetries: -1})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rts = httptest.NewServer(t.router.Handler())
	t.cl = newClient(t.rts.URL)
	return t, nil
}

// followerCaughtUp waits until the follower has applied every record
// shard 0 accepted, and reports how long that took; the error says why
// it gave up.
func (t *topology) followerCaughtUp() (time.Duration, error) {
	start := time.Now()
	want := int(t.shards[0].srv.Registry().Snapshot()["flows_accepted"])
	for {
		st := t.follower.Stats()
		switch {
		case st.AppliedRecords == want:
			return time.Since(start), nil
		case st.Fatal != "":
			return 0, fmt.Errorf("follower stopped: %s", st.Fatal)
		case time.Since(start) > 30*time.Second:
			return 0, fmt.Errorf("follower applied %d of shard 0's %d records after 30 s", st.AppliedRecords, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func (t *topology) close() {
	if t.rts != nil {
		t.rts.Close()
	}
	if t.follower != nil {
		t.follower.Stop()
	}
	for _, n := range t.shards {
		n.crash()
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
