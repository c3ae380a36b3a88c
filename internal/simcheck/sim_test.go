package simcheck

import (
	"errors"
	"fmt"
	"testing"

	"graphsig/internal/fault"
)

// smokeConfigs is the fixed seed set `make sim-smoke` runs: together
// ≥ 10k ops spanning explicit and learned origins, cold segments, and
// fault/crash schedules.
func smokeConfigs(t *testing.T) []Config {
	t.Helper()
	return []Config{
		{Seed: 1, Ops: 2000, ExplicitOrigin: true, Faults: true, Restarts: true},
		{Seed: 2, Ops: 2000, ExplicitOrigin: false, Faults: true, Restarts: true},
		{Seed: 3, Ops: 2000, ExplicitOrigin: true, Faults: true, Restarts: true},
		{Seed: 4, Ops: 2000, ExplicitOrigin: false, Faults: false, Restarts: true},
		{Seed: 5, Ops: 2000, ExplicitOrigin: true, Faults: true, Restarts: false},
		{Seed: 6, Ops: 500, ExplicitOrigin: false, Faults: false, Restarts: false},
		{Seed: 8, Ops: 2000, ExplicitOrigin: true, Segments: true, Capacity: 3, Faults: true, Restarts: true},
	}
}

// TestSimSmoke is the harness's main gate: every fixed seed must
// complete with zero divergences. On failure the error carries the
// seed and a minimized trace; re-run with that seed to replay exactly.
func TestSimSmoke(t *testing.T) {
	for _, cfg := range smokeConfigs(t) {
		cfg := cfg
		name := fmt.Sprintf("seed%d_origin%v_faults%v_restarts%v_segments%v",
			cfg.Seed, cfg.ExplicitOrigin, cfg.Faults, cfg.Restarts, cfg.Segments)
		t.Run(name, func(t *testing.T) {
			cfg.Dir = t.TempDir()
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimCrashInside adds the crash that lands inside an ingest — after
// the batch's first checkpoint, before the commit at its end — to the
// fault and restart schedule, with the client's retry after the reboot:
// the batch applies exactly once, and no recovered log holds a marker
// without its records (sim.checkLogMarkers, run at every reopen of
// every seed).
func TestSimCrashInside(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 31, Ops: 2000, ExplicitOrigin: false, Faults: true, Restarts: true, CrashInside: true},
		{Seed: 32, Ops: 1500, ExplicitOrigin: true, Faults: true, Restarts: true, CrashInside: true},
		{Seed: 33, Ops: 1200, ExplicitOrigin: false, Segments: true, Capacity: 3, Faults: true, Restarts: true, CrashInside: true},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_origin%v_segments%v", cfg.Seed, cfg.ExplicitOrigin, cfg.Segments), func(t *testing.T) {
			cfg.Dir = t.TempDir()
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimShortDeterministic re-runs one seed twice and expects clean
// passes both times — a cheap guard that nothing in the harness leaks
// state between runs.
func TestSimShortDeterministic(t *testing.T) {
	for i := 0; i < 2; i++ {
		cfg := Config{Seed: 11, Ops: 300, ExplicitOrigin: true, Faults: true, Restarts: true, Dir: t.TempDir()}
		if err := Run(cfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestSimSegments drives the tiered store hard: a tiny hot ring with a
// cold segment tier, crash/restart and fault schedules (including
// injected compaction failures), with the model holding the UNBOUNDED
// archive — so every history, search, and per-window read must keep
// reaching windows that left RAM long ago, across every recovery.
func TestSimSegments(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 21, Ops: 1200, ExplicitOrigin: true, Segments: true, Capacity: 2, Faults: true, Restarts: true},
		{Seed: 22, Ops: 1200, ExplicitOrigin: false, Segments: true, Capacity: 3, Faults: false, Restarts: true},
		{Seed: 23, Ops: 800, ExplicitOrigin: true, Segments: true, Capacity: 3, Faults: true, Restarts: false},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_cap%d_faults%v_restarts%v",
			cfg.Seed, cfg.Capacity, cfg.Faults, cfg.Restarts), func(t *testing.T) {
			cfg.Dir = t.TempDir()
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimCatchesInjectedStoreBug proves the harness has teeth, on a
// node and on a two-shard router: a deliberately corrupted store (from
// the fourth store.Add on, every window silently swallowed via the
// store.add failpoint) must surface as a divergence, and Minimize must
// reproduce it at the same op in a fresh directory.
func TestSimCatchesInjectedStoreBug(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 7, Ops: 800, ExplicitOrigin: true},
		{Seed: 7, Ops: 800, ExplicitOrigin: true, Shards: 2},
	} {
		t.Run(fmt.Sprintf("shards%d", cfg.Shards), func(t *testing.T) {
			defer fault.Reset()
			// The server drops a window whose Add fails silently (its
			// commit path treats Add errors as index conflicts), the model
			// keeps it — a model/target divergence by construction.
			fault.Set("store.add", fault.FailAfter(3, errors.New("injected store bug")))
			cfg.Dir = t.TempDir()
			err := Run(cfg)
			if err == nil {
				t.Fatal("harness missed a store that drops windows")
			}
			var div *Divergence
			if !errors.As(err, &div) {
				t.Fatalf("want a *Divergence, got %T: %v", err, err)
			}
			if div.Seed != cfg.Seed || len(div.Trace) == 0 {
				t.Fatalf("divergence missing replay info: %+v", div)
			}
			t.Logf("caught at op %d: %s", div.Op, div.Detail)

			// FailAfter counts calls across runs; re-arm so the minimized
			// replay sees the same fault schedule as the original.
			fault.Set("store.add", fault.FailAfter(3, errors.New("injected store bug")))
			min, err := Minimize(cfg, div)
			if err != nil {
				t.Fatalf("minimize: %v", err)
			}
			if min == nil {
				t.Fatal("minimized replay did not reproduce the divergence")
			}
			if min.Op != div.Op {
				t.Fatalf("minimized divergence at op %d, original at %d", min.Op, div.Op)
			}
		})
	}
}

// TestSimRequiresDir pins the misuse error.
func TestSimRequiresDir(t *testing.T) {
	if err := Run(Config{Seed: 1, Ops: 1}); err == nil {
		t.Fatal("Run without Dir should error")
	}
}

// TestSimCluster runs the schedule against a router over two (and
// three) shards: ingest accounting, search, batch search, history and
// the watchlist must answer as the model of one node holding the whole
// stream does. The cases keep the parameters their seeds were chosen
// under — a ring of 6 unless stated, a 64-cell sketch row, a pinned
// origin — and their names, in which cap0 stood for that ring of 6.
func TestSimCluster(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seed41_shards2_cap0", Config{Seed: 41, Ops: 400, Shards: 2, Capacity: 6, SketchWidth: 64, ExplicitOrigin: true}},
		{"seed42_shards2_cap3", Config{Seed: 42, Ops: 400, Shards: 2, Capacity: 3, SketchWidth: 64, ExplicitOrigin: true}}, // ring eviction in play
		{"seed43_shards3_cap0", Config{Seed: 43, Ops: 250, Shards: 3, Capacity: 6, SketchWidth: 64, ExplicitOrigin: true}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			cfg.Dir = t.TempDir()
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimClusterDeterministic replays one router seed twice: the
// harness must not leak state between runs.
func TestSimClusterDeterministic(t *testing.T) {
	for i := 0; i < 2; i++ {
		cfg := Config{Seed: 47, Ops: 150, Shards: 2, Capacity: 6, SketchWidth: 64, ExplicitOrigin: true, Dir: t.TempDir()}
		if err := Run(cfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestSimClusterFailover kills shard 0's primary mid-run: a read must
// keep answering at full width through its follower, auto-promotion
// must restore writes, a replay of the last batch sent before the kill
// must come back deduplicated, and the rest of the schedule must stay
// the model's.
func TestSimClusterFailover(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 51, Ops: 300, Shards: 2, Capacity: 6, SketchWidth: 64, ExplicitOrigin: true, Failover: true},
		{Seed: 52, Ops: 250, Shards: 3, Capacity: 3, SketchWidth: 64, ExplicitOrigin: true, Failover: true},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("seed%d_shards%d", cfg.Seed, cfg.Shards), func(t *testing.T) {
			cfg.Dir = t.TempDir()
			if err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
