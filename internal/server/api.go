package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"graphsig/internal/core"
	"graphsig/internal/obs"
)

// API is the query and watch surface a node and the cluster router
// share: *Server answers from its own archive, the router by asking its
// shards. Routes serves it over HTTP; a caller of the methods passes
// requests Routes would accept (see validate). A method's error carries
// the HTTP status that answers it (Status), and ctx carries the
// request's trace (TraceFrom).
type API interface {
	Search(ctx context.Context, req SearchRequest) (SearchResponse, error)
	SearchBatch(ctx context.Context, req BatchSearchRequest) (BatchSearchResponse, error)
	History(ctx context.Context, req HistoryRequest) (HistoryResponse, error)
	WatchlistAdd(ctx context.Context, req WatchlistAddRequest) (WatchlistAddResponse, error)
	WatchlistHits(ctx context.Context) (WatchlistHitsResponse, error)
	Anomalies(ctx context.Context, req AnomaliesRequest) (AnomaliesResponse, error)
}

// HistoryRequest is GET /v1/signatures/{label}: the label and the
// from/to/limit query.
type HistoryRequest struct {
	Label string
	Query HistoryQuery
}

// defaultZ is the anomaly z-score cut when a request names none.
const defaultZ = 2.0

// AnomaliesRequest is GET /v1/anomalies: the distance ("" for the
// node's) and the z-score cut, > 0.
type AnomaliesRequest struct {
	Distance string
	Z        float64
}

// Coverage is the router's account of a fan-out: how many shards
// answered, which of them through a follower, and, with debug on, the
// router's trace. A node's answer carries none.
type Coverage struct {
	ShardsOK    int          `json:"shards_ok"`
	ShardsTotal int          `json:"shards_total"`
	StaleShards []StaleShard `json:"stale_shards,omitempty"`
	TraceID     string       `json:"trace_id,omitempty"`
}

// StaleShard reports that one shard's portion of a response was served
// by a follower whose replication cursor may trail the lost primary's
// final durable state.
type StaleShard struct {
	Shard int `json:"shard"`
	// Gen and Offset are the follower's replication cursor — everything
	// the primary durably logged before that point is reflected.
	Gen    int   `json:"gen"`
	Offset int64 `json:"offset"`
	// BehindSeconds is how long ago the cursor last advanced.
	BehindSeconds float64 `json:"behind_seconds,omitempty"`
}

// ShardDebugJSON is one shard's explain block in a routed search: wall
// time of the shard call as seen from the router, plus the shard's own
// probe count.
type ShardDebugJSON struct {
	Shard  int    `json:"shard"`
	Micros int64  `json:"micros"`
	Probes int    `json:"probes"`
	Error  string `json:"error,omitempty"`
}

// SearchDebugJSON is a search's explain block, attached when debug is
// requested: a node's wall time and exact distance probes, written as
// an object, or — Shards set — the router's per-shard blocks, written
// as an array.
type SearchDebugJSON struct {
	TraceID string           `json:"trace_id,omitempty"`
	Micros  int64            `json:"micros"`
	Probes  int              `json:"probes"`
	Shards  []ShardDebugJSON `json:"-"`
}

// nodeDebug is SearchDebugJSON's object form, without its methods.
type nodeDebug SearchDebugJSON

func (d SearchDebugJSON) MarshalJSON() ([]byte, error) {
	if d.Shards != nil {
		return json.Marshal(d.Shards)
	}
	return json.Marshal(nodeDebug(d))
}

func (d *SearchDebugJSON) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		return json.Unmarshal(b, &d.Shards)
	}
	return json.Unmarshal(b, (*nodeDebug)(d))
}

type traceKey struct{}

// WithTrace returns ctx carrying tr, the trace an API method records
// its spans into.
func WithTrace(ctx context.Context, tr *obs.Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom is the trace ctx carries: nil, whose spans are no-ops, when
// it carries none.
func TraceFrom(ctx context.Context) *obs.Trace {
	tr, _ := ctx.Value(traceKey{}).(*obs.Trace)
	return tr
}

// StatusError is an API failure with the HTTP status that answers it.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// WithStatus pins the HTTP status that answers err.
func WithStatus(status int, err error) error { return &StatusError{Status: status, Err: err} }

// badRequest is a refusal of the request itself: 400.
func badRequest(format string, args ...any) error {
	return WithStatus(http.StatusBadRequest, fmt.Errorf(format, args...))
}

// Status is the HTTP status that answers an API call's outcome: 200 for
// no error, the status WithStatus pinned, else the status a node
// answered the call err came from (an *APIError), else 500.
func Status(err error) int {
	var se *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Status
	case APIStatus(err) != 0:
		return APIStatus(err)
	}
	return http.StatusInternalServerError
}

// StartTrace begins the trace of one request Routes serves; name is the
// route's ("search", "history", ...). A nil trace records nothing.
type StartTrace func(w http.ResponseWriter, r *http.Request, name string) *obs.Trace

// Routes registers api's six routes on mux: POST /v1/search and
// /v1/search/batch, GET /v1/signatures/{label}, POST /v1/watchlist, GET
// /v1/watchlist/hits and GET /v1/anomalies. Each decodes its request
// (a search's laid out first: readLaidOut), refuses what validate
// refuses with 400 before any work, calls api under the trace start
// begins, and answers the result, or the error with its Status.
func Routes(mux *http.ServeMux, api API, start StartTrace) {
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if readLaidOut(w, r, &req, (*layout).searchRequest) {
			req.Debug = req.Debug || r.URL.Query().Get("debug") == "1"
			serve(w, r, start, "search", req.validate(), func(ctx context.Context) (SearchResponse, error) {
				return api.Search(ctx, req)
			})
		}
	})
	mux.HandleFunc("POST /v1/search/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchSearchRequest
		if readLaidOut(w, r, &req, (*layout).batchSearchRequest) {
			req.Debug = req.Debug || r.URL.Query().Get("debug") == "1"
			serve(w, r, start, "search.batch", req.validate(), func(ctx context.Context) (BatchSearchResponse, error) {
				return api.SearchBatch(ctx, req)
			})
		}
	})
	mux.HandleFunc("GET /v1/signatures/{label}", func(w http.ResponseWriter, r *http.Request) {
		req := HistoryRequest{Label: r.PathValue("label")}
		var err error
		req.Query, err = parseHistoryQuery(r)
		serve(w, r, start, "history", err, func(ctx context.Context) (HistoryResponse, error) {
			return api.History(ctx, req)
		})
	})
	mux.HandleFunc("POST /v1/watchlist", func(w http.ResponseWriter, r *http.Request) {
		var req WatchlistAddRequest
		if DecodeJSON(w, r, &req) {
			serve(w, r, start, "watchlist.add", req.validate(), func(ctx context.Context) (WatchlistAddResponse, error) {
				return api.WatchlistAdd(ctx, req)
			})
		}
	})
	mux.HandleFunc("GET /v1/watchlist/hits", func(w http.ResponseWriter, r *http.Request) {
		serve(w, r, start, "watchlist.hits", nil, api.WatchlistHits)
	})
	mux.HandleFunc("GET /v1/anomalies", func(w http.ResponseWriter, r *http.Request) {
		req, err := parseAnomalies(r)
		serve(w, r, start, "anomalies", err, func(ctx context.Context) (AnomaliesResponse, error) {
			return api.Anomalies(ctx, req)
		})
	})
}

// serve answers one request of Routes: a refusal at once, else call's
// result under a trace named name.
func serve[T any](w http.ResponseWriter, r *http.Request, start StartTrace, name string, refused error, call func(context.Context) (T, error)) {
	if refused == nil {
		tr := start(w, r, name)
		defer tr.Finish()
		var resp T
		if resp, refused = call(WithTrace(r.Context(), tr)); refused == nil {
			WriteJSON(w, http.StatusOK, resp)
			return
		}
	}
	WriteError(w, Status(refused), "%v", refused)
}

// The refusals every side makes alike, before any work.

// validate refuses an unknown distance first, as the one-slot batch a
// single search is (SearchOne) refuses it before its slot.
func (q SearchRequest) validate() error {
	if err := knownDistance(q.Distance); err != nil {
		return err
	}
	switch {
	case q.Label != "" && q.Signature != nil:
		return badRequest("set either label or signature, not both")
	case q.Label == "" && q.Signature == nil:
		return badRequest("search needs a label or a signature")
	case q.Signature != nil:
		return q.Signature.validate()
	}
	return nil
}

// MaxBatchQueries bounds the slots of one batch search, on a node and
// on the router alike: a batch is answered under one read lock, and the
// router fans each slot out to every shard.
const MaxBatchQueries = 1024

func (b BatchSearchRequest) validate() error {
	switch {
	case len(b.Queries) == 0:
		return badRequest("batch search needs at least one query")
	case len(b.Queries) > MaxBatchQueries:
		return badRequest("batch search has %d queries, over the %d a batch may hold", len(b.Queries), MaxBatchQueries)
	}
	return knownDistance(b.Distance)
}

func (a WatchlistAddRequest) validate() error {
	switch {
	case a.Individual == "" || (a.Label == "" && a.Signature == nil):
		return badRequest("watchlist add needs individual and label")
	case a.Signature != nil && a.Window == nil:
		return badRequest("explicit-signature watchlist add needs window")
	case a.Signature != nil:
		return a.Signature.validate()
	}
	return nil
}

func (sj SignatureJSON) validate() error {
	if len(sj.Nodes) != len(sj.Weights) {
		return badRequest("signature nodes/weights length mismatch %d/%d", len(sj.Nodes), len(sj.Weights))
	}
	return nil
}

// knownDistance refuses a distance name no node knows; "" names the
// node's own.
func knownDistance(name string) error {
	if _, ok := core.DistanceByName(name); name != "" && !ok {
		return badRequest("server: unknown distance %q", name)
	}
	return nil
}

// parseAnomalies reads the distance and z of GET /v1/anomalies.
func parseAnomalies(r *http.Request) (AnomaliesRequest, error) {
	q := r.URL.Query()
	req := AnomaliesRequest{Distance: q.Get("distance"), Z: defaultZ}
	if zs := q.Get("z"); zs != "" {
		z, err := strconv.ParseFloat(zs, 64)
		if err != nil || !(z > 0) {
			return req, badRequest("bad z parameter %q", zs)
		}
		req.Z = z
	}
	return req, knownDistance(req.Distance)
}

// parseHistoryQuery parses the from/to/limit query of a history GET.
// An absent limit stays 0 (DefaultHistoryLimit applies); an explicit
// limit=0 means unbounded, which HistoryQuery spells -1.
func parseHistoryQuery(r *http.Request) (HistoryQuery, error) {
	var q HistoryQuery
	var hasLimit bool
	vals := r.URL.Query()
	for _, p := range []struct {
		key string
		dst *int
		has *bool
	}{{"from", &q.From, &q.HasFrom}, {"to", &q.To, &q.HasTo}, {"limit", &q.Limit, &hasLimit}} {
		v := vals.Get(p.key)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return q, badRequest("bad %s %q: want an integer", p.key, v)
		}
		*p.dst, *p.has = n, true
	}
	switch {
	case q.Limit < 0:
		return q, badRequest("bad limit %d: want >= 0", q.Limit)
	case q.Limit == 0 && hasLimit:
		q.Limit = -1
	}
	return q, nil
}

// SortWatchHits puts hits in the order GET /v1/watchlist/hits answers
// them on a node and on the router alike: window, label, individual,
// archived window, distance.
func SortWatchHits(hits []WatchHitJSON) {
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
		if a.ArchivedWindow != b.ArchivedWindow {
			return a.ArchivedWindow < b.ArchivedWindow
		}
		return a.Dist < b.Dist
	})
}
