package server

import (
	"fmt"
	"os"

	"graphsig/internal/wal"
)

// PromoteConfig parameterizes a follower-to-primary promotion.
type PromoteConfig struct {
	// SnapshotDir, when non-empty, becomes the promoted node's
	// durability home: a fresh WAL opens beside it and the replicated
	// archive is snapshotted into it immediately. Empty keeps the
	// promoted node memory-only (tests).
	SnapshotDir string
	// WALGen is the minimum generation number for the promoted node's
	// live log. Cluster promotion passes the follower's replication
	// generation + 1 so the promoted lineage's (gen, offset) cursors
	// never collide with bytes already shipped from the old primary.
	WALGen int
	// Node, when non-nil, is the promoted identity (typically the old
	// identity with Role "primary" and a bumped RingEpoch). It replaces
	// the one stamped at New in /readyz and the Prometheus const labels.
	Node *Identity
}

// Promote flips a read-only replica into a serving primary: it attaches
// durability (fresh WAL, immediate snapshot of the replicated state),
// enables replication so the next follower can chain off this node,
// commits the origin and the full watchlist as the new log's prologue,
// and opens the mutating endpoints. The server keeps serving reads
// throughout; handlers observe the flip through the readOnly and
// identity atomics.
//
// Promotion is idempotent in effect but not silently: promoting an
// already-writable server is an error, so a routed retry of POST
// /v1/promote surfaces rather than re-running the state machine.
func (s *Server) Promote(cfg PromoteConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.readOnly.Load() {
		return fmt.Errorf("server: already writable; promotion refused")
	}
	if cfg.SnapshotDir != "" {
		if err := s.attachDurabilityLocked(cfg); err != nil {
			return err
		}
	}
	s.cfg.ReadOnly = false
	s.readOnly.Store(false)
	s.replicating.Store(s.cfg.Replicate)
	if cfg.Node != nil {
		s.cfg.Node = cfg.Node
		s.stampIdentity(cfg.Node)
	}
	if s.cfg.SnapshotDir != "" {
		// The replicated archive existed only in memory on the follower;
		// make it durable before the node takes writes. Failure degrades
		// durability, not the promotion — the WAL covers new records and
		// the next checkpoint retries the save.
		if err := s.store.Save(s.cfg.SnapshotDir); err != nil {
			s.metrics.SnapshotErrors.Add(1)
			s.logf("sigserver: promotion snapshot failed (WAL will cover): %v", err)
		} else {
			s.metrics.SnapshotSaves.Add(1)
		}
	}
	s.walCommitLocked(nil, nil)
	s.metrics.Promotions.Add(1)
	s.logf("sigserver: promoted to primary (wal gen %d)", s.walGen)
	return nil
}

// attachDurabilityLocked gives a promoted node a durability home. Any
// log already at the WAL path belongs to a previous life of this
// process, not to the replicated lineage the node is continuing, so it
// is quarantined rather than replayed. Callers hold s.mu.
func (s *Server) attachDurabilityLocked(cfg PromoteConfig) error {
	s.cfg.SnapshotDir = cfg.SnapshotDir
	s.cfg.DisableWAL = false
	s.cfg.Replicate = true
	if s.cfg.ReplicaRetain == 0 {
		s.cfg.ReplicaRetain = DefaultReplicaRetain
	}
	path := WALPath(cfg.SnapshotDir)
	if info, err := os.Stat(path); err == nil && info.Size() > wal.HeaderLen {
		moved, qerr := wal.Quarantine(path)
		if qerr != nil {
			return fmt.Errorf("server: stale WAL at %s unquarantinable: %w", path, qerr)
		}
		s.metrics.WALQuarantines.Add(1)
		s.logf("sigserver: stale pre-promotion WAL quarantined to %s", moved)
	}
	w, _, err := wal.Open(path)
	if err != nil {
		return fmt.Errorf("server: opening promotion WAL: %w", err)
	}
	s.wal = w
	s.walOriginLogged, s.walWatchesLogged = false, 0
	s.instrumentWAL()
	gen, err := nextWALGen(path)
	if err != nil {
		return err
	}
	s.walGen = max(gen, cfg.WALGen)
	return nil
}
