package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"graphsig/internal/apps"
	"graphsig/internal/core"
	"graphsig/internal/fault"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/store"
	"graphsig/internal/wal"
)

// convertHits maps store hits to their wire form.
func convertHits(raw []store.Hit) []SearchHitJSON {
	out := make([]SearchHitJSON, len(raw))
	for i, h := range raw {
		out[i] = SearchHitJSON{Label: h.Label, Window: h.Window, Dist: h.Dist}
	}
	return out
}

// Wire types. Signatures travel as parallel label/weight arrays so the
// API is NodeID-free: labels are the stable cross-process identity.

// RecordJSON is one flow record on the wire.
type RecordJSON struct {
	Src        string    `json:"src"`
	Dst        string    `json:"dst"`
	Start      time.Time `json:"start"`
	DurationMS int64     `json:"duration_ms,omitempty"`
	Sessions   int       `json:"sessions"`
	Bytes      int64     `json:"bytes,omitempty"`
	Packets    int64     `json:"packets,omitempty"`
	// Proto is "tcp" (default) or "udp" or a numeric protocol.
	Proto string `json:"proto,omitempty"`
}

func (r RecordJSON) record() (netflow.Record, error) {
	// A negative duration converts, for Validate to reject the record at
	// ingest; one whose nanoseconds overflow would wrap to another.
	if r.DurationMS > math.MaxInt64/int64(time.Millisecond) || r.DurationMS < math.MinInt64/int64(time.Millisecond) {
		return netflow.Record{}, fmt.Errorf("duration_ms %d out of range", r.DurationMS)
	}
	proto := netflow.TCP
	if r.Proto != "" {
		p, err := netflow.ParseProto(r.Proto)
		if err != nil {
			return netflow.Record{}, err
		}
		proto = p
	}
	return netflow.Record{
		Src:      r.Src,
		Dst:      r.Dst,
		Start:    r.Start,
		Duration: time.Duration(r.DurationMS) * time.Millisecond,
		Sessions: r.Sessions,
		Bytes:    r.Bytes,
		Packets:  r.Packets,
		Proto:    proto,
	}, nil
}

// Record converts the wire record to its native form, as ReadFlows
// converts every record of a JSON body.
func (r RecordJSON) Record() (netflow.Record, error) { return r.record() }

// RecordToJSON converts a flow record to its wire form.
func RecordToJSON(r netflow.Record) RecordJSON {
	return RecordJSON{
		Src:        r.Src,
		Dst:        r.Dst,
		Start:      r.Start,
		DurationMS: r.Duration.Milliseconds(),
		Sessions:   r.Sessions,
		Bytes:      r.Bytes,
		Packets:    r.Packets,
		Proto:      r.Proto.String(),
	}
}

// IngestRequest is the POST /v1/flows body. BatchID, when set, makes
// the POST idempotent: re-sending the same ID (a retry after a
// timeout or 5xx) returns the recorded result instead of ingesting the
// records again.
type IngestRequest struct {
	Records []RecordJSON `json:"records"`
	BatchID string       `json:"batch_id,omitempty"`
}

// SignatureJSON is a signature with members resolved to labels.
type SignatureJSON struct {
	Nodes   []string  `json:"nodes"`
	Weights []float64 `json:"weights"`
}

func (s *Server) signatureJSON(sig core.Signature) SignatureJSON {
	u := s.store.Universe()
	out := SignatureJSON{Nodes: make([]string, sig.Len()), Weights: append([]float64(nil), sig.Weights...)}
	for i, n := range sig.Nodes {
		out.Nodes[i] = u.Label(n)
	}
	return out
}

// HistoryEntryJSON is one archived window of a label.
type HistoryEntryJSON struct {
	Window    int           `json:"window"`
	Scheme    string        `json:"scheme"`
	Signature SignatureJSON `json:"signature"`
}

// HistoryResponse is the GET /v1/signatures/{label} body. The query
// accepts from/to (inclusive window bounds) and limit: absent, limit
// defaults to DefaultHistoryLimit; limit=0 asks for the unbounded
// archive. When older matches were cut by the limit, Truncated is set
// — with a segment-backed cold tier a label's history can span months,
// so one GET must not default to shipping all of it.
type HistoryResponse struct {
	Label     string             `json:"label"`
	History   []HistoryEntryJSON `json:"history"`
	Truncated bool               `json:"truncated,omitempty"`
}

// SearchRequest is the POST /v1/search body: query by archived label
// or by an inline signature.
type SearchRequest struct {
	Label     string         `json:"label,omitempty"`
	Signature *SignatureJSON `json:"signature,omitempty"`
	K         int            `json:"k,omitempty"`
	MaxDist   float64        `json:"max_dist,omitempty"`
	// Distance overrides the server default ("jaccard", "dice", ...).
	Distance    string `json:"distance,omitempty"`
	LastWindows int    `json:"last_windows,omitempty"`
	// ExcludeLabel omits matches of this label from the results. Label
	// queries already self-exclude; the cluster router sets this on the
	// signature-query fan-out so non-owner shards apply the same
	// exclusion the owner does.
	ExcludeLabel string `json:"exclude_label,omitempty"`
	// AsOf, on a label query, is the window of the label's latest
	// signature as the asker knows it (-1: none): the slot then carries
	// the label's resolution unless that is still its window (Resolves).
	// The cluster router asks a label's owner shard with it.
	AsOf *int `json:"as_of,omitempty"`
	// Debug attaches per-query explain counters (timing, probes) to the
	// response; ?debug=1 on the URL does the same.
	Debug bool `json:"debug,omitempty"`
}

// SearchHitJSON is one nearest-signature hit.
type SearchHitJSON struct {
	Label  string  `json:"label"`
	Window int     `json:"window"`
	Dist   float64 `json:"dist"`
}

// SearchResponse is the POST /v1/search body.
type SearchResponse struct {
	Distance string          `json:"distance"`
	Hits     []SearchHitJSON `json:"hits"`
	*Coverage
	Debug *SearchDebugJSON `json:"debug,omitempty"`
}

// BatchSearchRequest is the POST /v1/search/batch body: many queries
// answered under one distance in a single round trip. The batch shares
// one window-ring snapshot and one pooled distance-kernel scratch, so
// n queries cost one setup plus n scans. Per-query Distance fields, if
// set, must agree with the batch distance — one batch, one kernel.
type BatchSearchRequest struct {
	Distance string          `json:"distance,omitempty"`
	Queries  []SearchRequest `json:"queries"`
	// Debug attaches explain counters aggregated across the batch's
	// queries; ?debug=1 on the URL does the same.
	Debug bool `json:"debug,omitempty"`
}

// BatchSearchResult is one slot of a batch response: hits on success,
// an error string when that query alone failed (unknown label, bad
// signature). Slot failures do not fail the batch. Resolved answers a
// label query's AsOf (Resolves). Err is the slot's failure in
// process, with the status a single search answers it with (SearchOne);
// it stays off the wire.
type BatchSearchResult struct {
	Hits     []SearchHitJSON   `json:"hits"`
	Error    string            `json:"error,omitempty"`
	Resolved *HistoryEntryJSON `json:"resolved,omitempty"`
	Err      error             `json:"-"`
}

// FailedSlot is a batch slot that failed with err.
func FailedSlot(err error) BatchSearchResult {
	return BatchSearchResult{Error: err.Error(), Err: err}
}

// Resolves reports whether a label query asked as of window asOf
// answers the label's resolution when its latest archived signature is
// of window latest (-1: none, answered as window -1 beside the 404):
// when asked as of a window that latest is not.
func Resolves(asOf *int, latest int) bool {
	return asOf != nil && (latest < 0 || latest != *asOf)
}

// SearchOne answers a single search as the one slot of a batch that
// batch answers — the one search path of a node and of the router: the
// batch's failure, else the slot's (with its status), else its hits.
func SearchOne(ctx context.Context, batch func(context.Context, BatchSearchRequest) (BatchSearchResponse, error), req SearchRequest) (SearchResponse, error) {
	resp, err := batch(ctx, BatchSearchRequest{Distance: req.Distance, Queries: []SearchRequest{req}, Debug: req.Debug})
	if err == nil {
		err = resp.Results[0].Err
	}
	if err != nil {
		return SearchResponse{}, err
	}
	return SearchResponse{Distance: resp.Distance, Hits: resp.Results[0].Hits, Coverage: resp.Coverage, Debug: resp.Debug}, nil
}

// BatchSearchResponse is the POST /v1/search/batch body. Results[i]
// answers Queries[i].
type BatchSearchResponse struct {
	Distance string              `json:"distance"`
	Results  []BatchSearchResult `json:"results"`
	*Coverage
	Debug *SearchDebugJSON `json:"debug,omitempty"`
}

// WatchlistAddRequest archives a label's stored signatures under an
// individual key. With Window set, only that window is archived;
// otherwise every archived window of the label is. With Signature set,
// the carried signature is archived directly (Window then required,
// Label ignored) — the cluster router sends every shard each entry it
// archives this way, since window-close screening happens locally per
// shard.
type WatchlistAddRequest struct {
	Individual string         `json:"individual"`
	Label      string         `json:"label"`
	Window     *int           `json:"window,omitempty"`
	Signature  *SignatureJSON `json:"signature,omitempty"`
}

// WatchlistAddResponse reports the archive growth.
type WatchlistAddResponse struct {
	Archived int `json:"archived"`
	Total    int `json:"watchlist_size"`
}

// WatchHitJSON is one recorded watchlist hit.
type WatchHitJSON struct {
	Window         int     `json:"window"`
	Label          string  `json:"label"`
	Individual     string  `json:"individual"`
	ArchivedWindow int     `json:"archived_window"`
	Dist           float64 `json:"dist"`
}

// WatchlistHitsResponse is the GET /v1/watchlist/hits body.
type WatchlistHitsResponse struct {
	Hits []WatchHitJSON `json:"hits"`
	*Coverage
}

// AnomalyJSON is one flagged label.
type AnomalyJSON struct {
	Label       string  `json:"label"`
	Persistence float64 `json:"persistence"`
	ZScore      float64 `json:"z_score"`
}

// AnomaliesResponse is the GET /v1/anomalies body.
type AnomaliesResponse struct {
	FromWindow int           `json:"from_window"`
	ToWindow   int           `json:"to_window"`
	Mean       float64       `json:"mean_persistence"`
	StdDev     float64       `json:"stddev_persistence"`
	Anomalies  []AnomalyJSON `json:"anomalies"`
	*Coverage
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Windows       int     `json:"windows"`
	CurrentWindow int     `json:"current_window"`
	Ingested      int     `json:"ingested"`
}

func (s *Server) routes() {
	Routes(s.mux, s, s.routeTrace)
	s.mux.HandleFunc("POST /v1/flows", s.handleFlows)
	s.mux.HandleFunc("GET /v1/persistence", s.handlePersistence)
	s.mux.HandleFunc("GET /v1/replication/status", s.handleReplicationStatus)
	s.mux.HandleFunc("GET /v1/replication/wal", s.handleReplicationWAL)
	s.mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		WriteTraces(w, r, s.obs.tracer)
	})
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// instrument wraps the mux with request counting and the per-route
// latency histogram (see serverObs).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		s.metrics.HTTPRequests.Add(1)
		sw := &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.Status >= 400 {
			s.metrics.HTTPErrors.Add(1)
		}
		s.obs.routeSeconds.With(routeName(r)).ObserveSince(begin)
	})
}

// The HTTP plumbing below is exported because sigrouterd's handlers
// (internal/cluster) answer the same wire format through it.

// StatusWriter records the status a handler wrote, for error counting.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Status = code
	w.ResponseWriter.WriteHeader(code)
}

// WriteJSON answers with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the API's error body, {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// MaxBodyBytes bounds the request bodies of a node and of the router
// (64 MiB: a generous flow batch); a longer one is answered 413.
const MaxBodyBytes = 64 << 20

// DecodeJSON reads the request body into v, strictly (unknown fields and
// anything but whitespace after the value are errors); on failure it
// has already answered 400, or 413 for a body over MaxBodyBytes
// (refused unread when its declared length is), and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := overLimit(r.ContentLength, MaxBodyBytes)
	if err == nil {
		err = decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
	}
	if err != nil {
		WriteError(w, bodyStatus(err), "bad request body: %v", err)
		return false
	}
	return true
}

// decodeStrict decodes the one JSON value body holds into v, refusing
// unknown fields and anything but whitespace after the value.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("data after the JSON value")
		if bodyStatus(tail) == http.StatusRequestEntityTooLarge {
			err = tail
		}
	}
	return err
}

// bodyStatus is the status for a request body that could not be read
// or decoded: 413 when it was over MaxBodyBytes, else 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// overLimit refuses a body whose declared length is over limit before
// any of it is read.
func overLimit(declared, limit int64) error {
	if declared > limit {
		return fmt.Errorf("%d bytes declared: %w", declared, &http.MaxBytesError{Limit: limit})
	}
	return nil
}

// bodyStartBytes is where readBody's buffer starts for a long body.
const bodyStartBytes = 64 << 10

// readBody reads r to its end into one buffer. declared is the length
// the sender gave, or -1. The buffer starts at min(declared+1,
// bodyStartBytes) bytes and doubles as it fills, to declared+1 once a
// doubling would reach the declared length: the declared bytes and the
// end of input after them then need no further buffer, and a declared
// length buys no memory before its bytes arrive. A buffer past its start
// holds at most twice what came. A body over limit bytes, declared or
// read, is an *http.MaxBytesError, which bodyStatus answers 413. A read
// that fails returns the bytes that came before its error with it.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if err := overLimit(declared, limit); err != nil {
		return nil, err
	}
	want := limit
	if declared >= 0 {
		want = declared
	}
	b := make([]byte, 0, min(want+1, bodyStartBytes))
	for {
		if len(b) == cap(b) {
			n := 2 * int64(cap(b))
			if n >= want && int64(cap(b)) <= want {
				n = want + 1
			}
			b = append(make([]byte, 0, min(n, limit+1)), b...)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case int64(len(b)) > limit:
			return nil, fmt.Errorf("over %d bytes: %w", limit, &http.MaxBytesError{Limit: limit})
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
	}
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	if err := s.writable(); err != nil {
		WriteError(w, Status(err), "%v", err)
		return
	}
	// Bound concurrent ingest work before reading the body: a server
	// at its in-flight limit sheds load with 429 + Retry-After instead
	// of queueing unboundedly on the ingest lock.
	if s.ingestSem != nil {
		select {
		case s.ingestSem <- struct{}{}:
			defer func() { <-s.ingestSem }()
		default:
			s.metrics.IngestThrottled.Add(1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "ingest at capacity (%d batches in flight); retry", cap(s.ingestSem))
			return
		}
	}
	batchID, records, ok := ReadFlows(w, r)
	if !ok {
		return
	}
	_ = fault.Inject("server.ingest.hold") // test hook: park here while holding an in-flight slot
	tr := s.routeTrace(w, r, "ingest")
	defer tr.Finish()
	WriteJSON(w, http.StatusOK, s.ingestBatchTraced(tr, batchID, records))
}

// bounds resolves the query to Store.HistoryRange arguments: whole
// archive unless bounded, DefaultHistoryLimit unless stated, 0 = no
// limit.
func (q HistoryQuery) bounds() (from, to, limit int) {
	from, to, limit = math.MinInt, math.MaxInt, q.Limit
	if q.HasFrom {
		from = q.From
	}
	if q.HasTo {
		to = q.To
	}
	switch {
	case limit == 0:
		limit = DefaultHistoryLimit
	case limit < 0:
		limit = 0
	}
	return from, to, limit
}

// History answers a label's archived signatures within req's bounds.
func (s *Server) History(_ context.Context, req HistoryRequest) (HistoryResponse, error) {
	s.metrics.HistoryQueries.Add(1)
	from, to, limit := req.Query.bounds()
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, truncated, err := s.store.HistoryRange(req.Label, from, to, limit)
	if err != nil {
		return HistoryResponse{}, fmt.Errorf("reading archive: %w", err)
	}
	if len(entries) == 0 {
		return HistoryResponse{}, WithStatus(http.StatusNotFound, fmt.Errorf("label %q has no archived signatures", req.Label))
	}
	resp := HistoryResponse{Label: req.Label, Truncated: truncated}
	for _, e := range entries {
		resp.History = append(resp.History, HistoryEntryJSON{
			Window:    e.Window,
			Scheme:    e.Scheme,
			Signature: s.signatureJSON(e.Sig),
		})
	}
	return resp, nil
}

// Search answers one query as the one slot of a batch (SearchOne).
func (s *Server) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	return SearchOne(ctx, s.searchBatch, req)
}

// SearchBatch answers every query of req under one distance, one ring
// snapshot and one store batch. A query that cannot be resolved (an
// unknown label, a bad signature) fails its own slot, not the batch.
func (s *Server) SearchBatch(ctx context.Context, req BatchSearchRequest) (BatchSearchResponse, error) {
	s.metrics.BatchSearches.Add(1)
	return s.searchBatch(ctx, req)
}

// searchBatch is SearchBatch without the batch count, which a single
// search does not add to.
func (s *Server) searchBatch(ctx context.Context, req BatchSearchRequest) (BatchSearchResponse, error) {
	s.metrics.SearchQueries.Add(int64(len(req.Queries)))
	tr := TraceFrom(ctx)
	d, err := s.distanceFor(req.Distance)
	if err != nil {
		return BatchSearchResponse{}, err
	}
	var stats store.SearchStats
	begin := time.Now()

	s.mu.RLock()
	defer s.mu.RUnlock()
	provisional := s.provisionalIDs(req.Queries)

	// Resolve every slot to a concrete (signature, options) query or a
	// per-slot error, then run the survivors through one store batch.
	results := make([]BatchSearchResult, len(req.Queries))
	queries := make([]store.BatchQuery, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	end := tr.Span("resolve")
	for i, q := range req.Queries {
		bq, resolved, err := s.resolveSearchQuery(q, d, provisional)
		if errors.Is(err, store.ErrColdRead) {
			end()
			return BatchSearchResponse{}, err
		}
		results[i].Resolved = resolved
		if err != nil {
			results[i].Error, results[i].Err = err.Error(), err
			continue
		}
		if req.Debug {
			bq.Opts.Stats = &stats // shared: values aggregate across the batch
		}
		queries = append(queries, bq)
		slots = append(slots, i)
	}
	end()
	end = tr.Span("store.search")
	hits, err := s.store.SearchBatch(d, queries)
	end()
	if err != nil {
		return BatchSearchResponse{}, err // a cold-tier read: the node's own fault, 500
	}
	for k := range hits {
		results[slots[k]].Hits = convertHits(hits[k])
	}
	resp := BatchSearchResponse{Distance: d.Name(), Results: results}
	if req.Debug {
		resp.Debug = &SearchDebugJSON{TraceID: tr.ID(), Micros: time.Since(begin).Microseconds(), Probes: stats.Probes}
	}
	return resp, nil
}

// resolveSearchQuery turns one batch slot into a store query, an
// inline signature's unknown labels taking their provisional NodeIDs
// from provisional, and a label query's AsOf into its resolution. A
// slot it cannot resolve fails with the status a single search answers:
// 404 for a label with no archived signature, 400 for a refused query or
// signature; a cold-tier read that fails is the node's own fault and
// fails the whole request, 500. Callers hold the read lock.
func (s *Server) resolveSearchQuery(q SearchRequest, d core.Distance, provisional map[string]graph.NodeID) (store.BatchQuery, *HistoryEntryJSON, error) {
	if err := q.validate(); err != nil {
		return store.BatchQuery{}, nil, err
	}
	if qd, _ := s.distanceFor(q.Distance); q.Distance != "" && qd.Name() != d.Name() {
		return store.BatchQuery{}, nil, badRequest("query distance %q differs from batch distance %q", qd.Name(), d.Name())
	}
	opts := store.SearchOptions{TopK: q.K, MaxDist: q.MaxDist, LastWindows: q.LastWindows, ExcludeLabel: q.ExcludeLabel}
	if q.Signature == nil {
		e, ok, err := s.store.ReadLatestSignature(q.Label)
		if err != nil {
			return store.BatchQuery{}, nil, err
		}
		var resolved *HistoryEntryJSON
		if !ok {
			e.Window = -1
		}
		if Resolves(q.AsOf, e.Window) {
			resolved = &HistoryEntryJSON{Window: e.Window, Scheme: e.Scheme, Signature: s.signatureJSON(e.Sig)}
		}
		if !ok {
			return store.BatchQuery{}, resolved, WithStatus(http.StatusNotFound, fmt.Errorf("label %q has no archived signature", q.Label))
		}
		if opts.ExcludeLabel == "" {
			opts.ExcludeLabel = q.Label
		}
		return store.BatchQuery{Sig: e.Sig, Opts: opts}, resolved, nil
	}
	sig, err := s.querySignature(*q.Signature, provisional)
	if err != nil {
		return store.BatchQuery{}, nil, WithStatus(http.StatusBadRequest, err)
	}
	return store.BatchQuery{Sig: sig, Opts: opts}, nil, nil
}

// provisionalIDs gives every member label of the queries' inline
// signatures that the universe does not hold the NodeID interning would
// give it: past Universe().Size(), in order of first appearance across
// the queries. A search by signature resolves its labels through them and
// interns nothing, so it runs under the read lock and leaves no label
// behind for the next snapshot. That is safe because a distance only
// compares NodeIDs, and the store's postings and a cold block's rows
// bounds-check the ones no window holds. Callers hold the read lock.
func (s *Server) provisionalIDs(queries []SearchRequest) map[string]graph.NodeID {
	u := s.store.Universe()
	var ids map[string]graph.NodeID
	for _, q := range queries {
		if q.Signature == nil {
			continue
		}
		for _, label := range q.Signature.Nodes {
			if _, ok := u.Lookup(label); ok {
				continue
			}
			if _, ok := ids[label]; !ok {
				if ids == nil {
					ids = map[string]graph.NodeID{}
				}
				ids[label] = graph.NodeID(u.Size() + len(ids))
			}
		}
	}
	return ids
}

// classifier is the pipeline's label classifier.
func (s *Server) classifier() func(string) graph.Part {
	if s.cfg.Stream.Classify != nil {
		return s.cfg.Stream.Classify
	}
	return netflow.General
}

// internSignature builds a core.Signature from wire form, interning
// unknown member labels through the pipeline's classifier. Callers hold
// the write lock.
func (s *Server) internSignature(sj SignatureJSON) (core.Signature, error) {
	u, classify := s.store.Universe(), s.classifier()
	return s.signatureOf(sj, func(label string) graph.NodeID {
		v, _ := u.Intern(label, classify(label)) // its part was checked
		return v
	})
}

// querySignature builds a search's core.Signature from wire form, an
// unknown member label taking its NodeID from provisional
// (provisionalIDs). Callers hold the read lock.
func (s *Server) querySignature(sj SignatureJSON, provisional map[string]graph.NodeID) (core.Signature, error) {
	u := s.store.Universe()
	return s.signatureOf(sj, func(label string) graph.NodeID {
		if v, ok := u.Lookup(label); ok {
			return v
		}
		return provisional[label]
	})
}

// signatureOf builds a core.Signature from wire form, each member label
// under the NodeID id gives it. It checks the whole signature before it
// asks id for one, so a signature it refuses interns nothing.
func (s *Server) signatureOf(sj SignatureJSON, id func(label string) graph.NodeID) (core.Signature, error) {
	if err := sj.validate(); err != nil {
		return core.Signature{}, err
	}
	classify := s.classifier()
	u := s.store.Universe()
	sums := make(map[string]float64, len(sj.Nodes))
	for i, label := range sj.Nodes {
		if v, ok := u.Lookup(label); ok && u.PartOf(v) != classify(label) {
			return core.Signature{}, fmt.Errorf("signature label %q is %v here, classified %v", label, u.PartOf(v), classify(label))
		}
		sums[label] += sj.Weights[i]
	}
	positive := false
	for _, w := range sums {
		positive = positive || w > 0 && !math.IsInf(w, 1) // NaN fails the first test
	}
	if !positive {
		return core.Signature{}, fmt.Errorf("signature has no positive-weight members")
	}
	weights := make(map[graph.NodeID]float64, len(sums))
	for _, label := range sj.Nodes {
		weights[id(label)] = sums[label]
	}
	return core.FromWeights(weights, len(weights)), nil
}

// WatchlistAdd archives signatures under req.Individual for window-close
// screening: the carried signature, or the label's archived ones.
func (s *Server) WatchlistAdd(_ context.Context, req WatchlistAddRequest) (WatchlistAddResponse, error) {
	if err := s.writable(); err != nil {
		return WatchlistAddResponse{}, err
	}
	// An add interns the carried labels, mirrors the archived entries
	// into watchWire and frames them into the WAL, so a follower (and
	// any later generation's replay) screens the same set: write lock
	// throughout.
	s.mu.Lock()
	defer s.mu.Unlock()
	var entries []wal.WatchEntry
	if req.Signature != nil {
		entries = append(entries, wal.WatchEntry{Individual: req.Individual, Window: *req.Window,
			Nodes: req.Signature.Nodes, Weights: req.Signature.Weights})
	} else {
		// The watchlist archives the label's full history — screening
		// wants every epoch of the individual, so this read is explicitly
		// unbounded even when the archive reaches into cold segments.
		history, _, err := s.store.HistoryRange(req.Label, math.MinInt, math.MaxInt, 0)
		if err != nil {
			return WatchlistAddResponse{}, fmt.Errorf("reading archive: %w", err)
		}
		for _, e := range history {
			if (req.Window == nil || e.Window == *req.Window) && !e.Sig.IsEmpty() {
				sj := s.signatureJSON(e.Sig)
				entries = append(entries, wal.WatchEntry{Individual: req.Individual, Window: e.Window, Nodes: sj.Nodes, Weights: sj.Weights})
			}
		}
		if len(entries) == 0 {
			return WatchlistAddResponse{}, WithStatus(http.StatusNotFound, fmt.Errorf("label %q has no archivable signature", req.Label))
		}
	}
	for _, e := range entries {
		if err := s.addWatchLocked(e, true); err != nil {
			if req.Signature != nil {
				err = WithStatus(http.StatusBadRequest, err) // a carried signature the node refuses
			}
			return WatchlistAddResponse{}, err
		}
	}
	s.metrics.WatchlistAdds.Add(int64(len(entries)))
	return WatchlistAddResponse{Archived: len(entries), Total: s.watch.Len()}, nil
}

// WatchlistHits answers the hit log, which is kept in SortWatchHits
// order. An empty log answers [], not null.
func (s *Server) WatchlistHits(context.Context) (WatchlistHitsResponse, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return WatchlistHitsResponse{Hits: append([]WatchHitJSON{}, s.hits...)}, nil
}

// Anomalies reports the labels whose self-persistence between the last
// two archived windows falls req.Z standard deviations under the mean.
func (s *Server) Anomalies(_ context.Context, req AnomaliesRequest) (AnomaliesResponse, error) {
	s.metrics.AnomalyQueries.Add(1)
	d, err := s.distanceFor(req.Distance)
	if err != nil {
		return AnomaliesResponse{}, err
	}
	from, to, pairs, err := s.persistence(d)
	if err != nil {
		return AnomaliesResponse{}, err
	}
	return AnomaliesOf(from, to, pairs, req.Z)
}

// persistence is every label's self-persistence under d between the
// last two archived windows, from and to: what a node's anomaly
// detection runs over and what it hands the router for a cluster's. With
// fewer than two windows archived it is a 409, in one text on node and
// router alike. Label-keyed, label-ordered accumulation: the report is
// a pure function of the (label, persistence) pairs, so a cluster router
// merging per-shard pair sets reproduces it bit-identically.
func (s *Server) persistence(d core.Distance) (from, to int, pairs []apps.PersistencePair, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	windows := s.store.Windows()
	if len(windows) < 2 {
		return 0, 0, nil, WithStatus(http.StatusConflict, fmt.Errorf("anomaly detection needs two archived windows, have %d", len(windows)))
	}
	at, next := windows[len(windows)-2], windows[len(windows)-1]
	return at.Window, next.Window, apps.PersistenceByLabel(d, s.store.Universe(), at, next), nil
}

// AnomaliesOf runs the anomaly detection over label-keyed persistence
// pairs, as a node does over its own and the router over its shards'.
func AnomaliesOf(from, to int, pairs []apps.PersistencePair, z float64) (AnomaliesResponse, error) {
	anomalies, summary, err := apps.DetectAnomaliesByLabel(pairs, z)
	if err != nil {
		return AnomaliesResponse{}, WithStatus(http.StatusConflict, err)
	}
	resp := AnomaliesResponse{FromWindow: from, ToWindow: to, Mean: summary.Mean, StdDev: summary.StdDev}
	for _, a := range anomalies {
		resp.Anomalies = append(resp.Anomalies, AnomalyJSON{
			Label:       a.Label,
			Persistence: a.Persistence,
			ZScore:      a.ZScore,
		})
	}
	return resp, nil
}

// PersistencePairJSON is one label's self-persistence on the wire.
type PersistencePairJSON struct {
	Label       string  `json:"label"`
	Persistence float64 `json:"persistence"`
}

// PersistenceResponse is the GET /v1/persistence body: the raw
// label-keyed persistence pairs between the last two archived windows.
// This is the anomaly computation's intermediate form — the cluster
// router fetches it from every shard, merges the (disjoint) pair sets,
// and runs the same detection the single-node handler runs.
type PersistenceResponse struct {
	Distance   string                `json:"distance"`
	FromWindow int                   `json:"from_window"`
	ToWindow   int                   `json:"to_window"`
	Pairs      []PersistencePairJSON `json:"pairs"`
}

func (s *Server) handlePersistence(w http.ResponseWriter, r *http.Request) {
	tr := s.traceRemote(r, "persistence")
	defer tr.Finish()
	d, err := s.distanceFor(r.URL.Query().Get("distance"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	from, to, pairs, err := s.persistence(d)
	if err != nil {
		WriteError(w, Status(err), "%v", err)
		return
	}
	resp := PersistenceResponse{
		Distance:   d.Name(),
		FromWindow: from,
		ToWindow:   to,
		Pairs:      make([]PersistencePairJSON, len(pairs)),
	}
	for i, p := range pairs {
		resp.Pairs[i] = PersistencePairJSON{Label: p.Label, Persistence: p.Persistence}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Windows:       s.store.Len(),
		CurrentWindow: s.pipeline.CurrentWindow(),
		Ingested:      s.pipeline.Ingested(),
	}
	s.mu.RUnlock()
	WriteJSON(w, http.StatusOK, resp)
}
