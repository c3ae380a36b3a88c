package server

import (
	"net/http"
	"os"
	"strconv"

	"graphsig/internal/wal"
)

// WAL shipping endpoints (Replicate mode). A follower's cursor is a
// (generation, byte offset) pair: offsets start at wal.HeaderLen and
// advance by exactly the bytes fetched, and a generation ends when the
// primary seals it at a checkpoint. The primary serves only durably
// fsynced bytes, so every byte a follower ever receives is also a byte
// recovery would replay — the follower and a restarted primary can
// never disagree on the log's contents.

// DefaultReplicationChunk bounds one GET /v1/replication/wal response
// body; MaxReplicationChunk caps a client-requested max.
const (
	DefaultReplicationChunk = 1 << 20
	MaxReplicationChunk     = 4 << 20
)

// Replication response headers.
const (
	// HeaderWALGen echoes the generation served.
	HeaderWALGen = "X-Wal-Gen"
	// HeaderWALSealed is "true" when the generation is complete: once
	// the follower's offset reaches the advertised size it should move
	// to the next generation.
	HeaderWALSealed = "X-Wal-Sealed"
	// HeaderWALSize is the generation's total durable size so far.
	HeaderWALSize = "X-Wal-Size"
)

// ReplicationStatusResponse is the GET /v1/replication/status body.
type ReplicationStatusResponse struct {
	Replicating bool `json:"replicating"`
	// Gen is the live generation; OldestGen the oldest still fetchable
	// (sealed segments older than the retention bound are pruned).
	Gen         int       `json:"gen"`
	OldestGen   int       `json:"oldest_gen"`
	DurableSize int64     `json:"durable_size"`
	Node        *Identity `json:"node,omitempty"`
}

func (s *Server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	resp := ReplicationStatusResponse{Replicating: s.replicating.Load(), Node: s.Identity()}
	if resp.Replicating {
		s.mu.RLock()
		log := s.wal
		resp.Gen = s.walGen
		resp.DurableSize = log.DurableSize()
		s.mu.RUnlock()
		resp.OldestGen = resp.Gen
		if gens, err := walSegmentGens(log.Path()); err == nil && len(gens) > 0 {
			resp.OldestGen = gens[0]
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if !s.replicating.Load() {
		WriteError(w, http.StatusConflict, "replication not enabled on this node")
		return
	}
	q := r.URL.Query()
	gen, err := strconv.Atoi(q.Get("gen"))
	if err != nil || gen < 0 {
		WriteError(w, http.StatusBadRequest, "bad gen parameter %q", q.Get("gen"))
		return
	}
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil || from < wal.HeaderLen {
		WriteError(w, http.StatusBadRequest, "bad from parameter %q (offsets start at %d)", q.Get("from"), wal.HeaderLen)
		return
	}
	chunk := DefaultReplicationChunk
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m <= 0 {
			WriteError(w, http.StatusBadRequest, "bad max parameter %q", ms)
			return
		}
		chunk = min(m, MaxReplicationChunk)
	}
	// Adopt the follower's poll trace only when the poll actually ships
	// bytes: finishing a trace per idle 5 ms poll would flood the
	// bounded ring with empty entries. An unfinished trace is simply
	// dropped.
	tr := s.traceRemote(r, "replication.wal")
	endRead := tr.Span("wal.read")

	// The live generation is read under the server lock: walGen and the
	// WAL's durable bytes must be observed together, or a concurrent
	// rotation could mislabel sealed bytes as live ones.
	s.mu.RLock()
	cur := s.walGen
	log := s.wal
	if gen == cur {
		size := log.DurableSize()
		if from > size {
			s.mu.RUnlock()
			WriteError(w, http.StatusRequestedRangeNotSatisfiable, "offset %d beyond durable size %d of generation %d", from, size, gen)
			return
		}
		data, err := log.ReadDurable(from, chunk)
		s.mu.RUnlock()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		endRead()
		s.writeWALChunk(w, gen, false, size, data)
		if len(data) > 0 {
			tr.Finish()
		}
		return
	}
	s.mu.RUnlock()
	if gen > cur {
		WriteError(w, http.StatusNotFound, "generation %d not started (live generation is %d)", gen, cur)
		return
	}

	// Sealed generations are immutable files; no lock needed.
	f, err := os.Open(walSegmentPath(log.Path(), gen))
	if os.IsNotExist(err) {
		WriteError(w, http.StatusGone, "generation %d pruned; re-bootstrap from a snapshot or the oldest retained generation", gen)
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	size := info.Size()
	if from > size {
		WriteError(w, http.StatusRequestedRangeNotSatisfiable, "offset %d beyond size %d of sealed generation %d", from, size, gen)
		return
	}
	n := min(int64(chunk), size-from)
	data := make([]byte, n)
	if n > 0 {
		if _, err := f.ReadAt(data, from); err != nil {
			WriteError(w, http.StatusInternalServerError, "reading sealed segment: %v", err)
			return
		}
	}
	endRead()
	s.writeWALChunk(w, gen, true, size, data)
	if len(data) > 0 {
		tr.Finish()
	}
}

func (s *Server) writeWALChunk(w http.ResponseWriter, gen int, sealed bool, size int64, data []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderWALGen, strconv.Itoa(gen))
	w.Header().Set(HeaderWALSealed, strconv.FormatBool(sealed))
	w.Header().Set(HeaderWALSize, strconv.FormatInt(size, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// requireWritable gates a mutating handler in ReadOnly mode. It reads
// the readOnly shadow atomic, not cfg, because Promote flips the mode
// while handlers are running.
func (s *Server) requireWritable(w http.ResponseWriter) bool {
	if !s.readOnly.Load() {
		return true
	}
	role := "follower"
	if id := s.Identity(); id != nil && id.Role != "" {
		role = id.Role
	}
	WriteError(w, http.StatusForbidden, "node is read-only (%s); send writes to the primary", role)
	return false
}

// WALGen reports the live WAL generation (0 when not replicating).
func (s *Server) WALGen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walGen
}
