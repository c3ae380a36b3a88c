package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// The router's HTTP surface mirrors sigserverd's v1 API so sigtool and
// other clients work unchanged against a cluster: same routes, same
// request bodies, responses extended with shards_ok/shards_total.

func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/flows", rt.handleFlows)
	rt.mux.HandleFunc("GET /v1/signatures/{label}", rt.handleHistory)
	rt.mux.HandleFunc("POST /v1/search", rt.handleSearch)
	rt.mux.HandleFunc("POST /v1/search/batch", rt.handleSearchBatch)
	rt.mux.HandleFunc("POST /v1/watchlist", rt.handleWatchlistAdd)
	rt.mux.HandleFunc("GET /v1/watchlist/hits", rt.handleWatchlistHits)
	rt.mux.HandleFunc("GET /v1/anomalies", rt.handleAnomalies)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /v1/cluster/health", rt.handleClusterHealth)
	rt.mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		server.WriteTraces(w, r, rt.tracer)
	})
	rt.mux.HandleFunc("GET /v1/traces/{id}", rt.handleTraceByID)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
}

// startTrace begins a router trace for an HTTP request, adopting an
// inbound X-Sig-Trace context when present, and advertises the minted
// context back to the caller in the response headers — so any routed
// call's trace is one response header away from `sigtool trace <id>`.
func (rt *Router) startTrace(w http.ResponseWriter, r *http.Request, name string) *obs.Trace {
	tr := rt.tracer.StartRemote(name, obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)))
	w.Header().Set(obs.TraceHeader, tr.Context().String())
	return tr
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.httpRequests.Add(1)
		sw := &server.StatusWriter{ResponseWriter: w, Status: http.StatusOK}
		rt.mux.ServeHTTP(sw, r)
		if sw.Status >= 400 {
			rt.httpErrors.Add(1)
		}
	})
}

// errStatus maps a routed-call failure onto a response status,
// propagating the shard's own status when the failure was a single
// shard API error (e.g. 404 from the owner shard).
func errStatus(err error, fallback int) int {
	if st := server.APIStatus(err); st != 0 {
		return st
	}
	return fallback
}

func (rt *Router) handleFlows(w http.ResponseWriter, r *http.Request) {
	batchID, records, ok := server.ReadFlows(w, r)
	if !ok {
		return
	}
	if batchID == "" {
		// Without a client ID the router still stamps one so its own
		// per-shard retries stay exactly-once; the client's retry of the
		// whole POST is then NOT deduplicated — same contract as posting
		// ID-less batches to a single node.
		batchID = server.NewBatchID()
	}
	tr := rt.startTrace(w, r, "route.ingest")
	defer tr.Finish()
	resp, err := rt.ingest(tr, batchID, records)
	if err != nil {
		// Partial ingest: some shards applied their partitions, others
		// did not. 502 tells the client to retry (with the same batch ID
		// for exactly-once); the body carries the partial accounting.
		server.WriteJSON(w, http.StatusBadGateway, resp)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleHistory(w http.ResponseWriter, r *http.Request) {
	q, err := server.ParseHistoryQuery(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := rt.startTrace(w, r, "route.history")
	defer tr.Finish()
	resp, err := rt.history(tr, r.PathValue("label"), q)
	if err != nil {
		server.WriteError(w, errStatus(err, http.StatusBadGateway), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req server.SearchRequest
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	if r.URL.Query().Get("debug") == "1" {
		req.Debug = true
	}
	tr := rt.startTrace(w, r, "route.search")
	defer tr.Finish()
	resp, err := rt.search(tr, req)
	if err != nil {
		server.WriteError(w, errStatus(err, http.StatusBadGateway), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchSearchRequest
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	if r.URL.Query().Get("debug") == "1" {
		req.Debug = true
	}
	tr := rt.startTrace(w, r, "route.search.batch")
	defer tr.Finish()
	resp, err := rt.searchBatch(tr, req)
	if err != nil {
		server.WriteError(w, errStatus(err, http.StatusBadGateway), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleWatchlistAdd(w http.ResponseWriter, r *http.Request) {
	var req server.WatchlistAddRequest
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	if req.Individual == "" || req.Label == "" {
		server.WriteError(w, http.StatusBadRequest, "watchlist add needs individual and label")
		return
	}
	tr := rt.startTrace(w, r, "route.watchlist.add")
	defer tr.Finish()
	resp, err := rt.watchlistAdd(tr, req)
	if err != nil {
		server.WriteError(w, errStatus(err, http.StatusBadGateway), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleWatchlistHits(w http.ResponseWriter, r *http.Request) {
	tr := rt.startTrace(w, r, "route.watchlist.hits")
	defer tr.Finish()
	resp, err := rt.watchlistHits(tr)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	zCut := 0.0
	if zs := r.URL.Query().Get("z"); zs != "" {
		z, err := strconv.ParseFloat(zs, 64)
		if err != nil || z <= 0 {
			server.WriteError(w, http.StatusBadRequest, "bad z parameter %q", zs)
			return
		}
		zCut = z
	}
	tr := rt.startTrace(w, r, "route.anomalies")
	defer tr.Finish()
	resp, err := rt.anomalies(tr, r.URL.Query().Get("distance"), zCut)
	if err != nil {
		server.WriteError(w, errStatus(err, http.StatusBadGateway), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// RouterHealth is the router's GET /healthz body.
type RouterHealth struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, RouterHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Shards:        rt.ring.Shards(),
	})
}

// handleReady reports ready only when every shard is: a router in
// front of a half-down fleet still serves degraded reads, but load
// balancers should prefer a fully connected one. With a health prober
// configured, a shard whose writes answer through a promoted follower
// counts as ready, and one whose reads fail over to a follower counts
// as ready with a staleness note — failover is the feature working, not
// an outage.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	// Readiness polls are load-balancer traffic; no trace is minted for
	// them (nil trace → no-op spans).
	results := scatter(rt, nil, "ready", rt.allShards(), func(s int, _ obs.TraceContext) (server.ReadyResponse, error) {
		return rt.writeClient(s).Ready()
	})
	resp := server.ReadyResponse{Ready: true, Node: rt.Identity()}
	for _, res := range results {
		if res.err == nil {
			continue
		}
		if rt.prober != nil {
			if t := rt.prober.target(res.shard); t.primaryDown && t.freshest >= 0 {
				resp.Reasons = append(resp.Reasons,
					fmt.Sprintf("shard %d: primary unavailable; reads served by follower at gen %d offset %d",
						res.shard, t.gen, t.off))
				continue
			}
		}
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, fmt.Sprintf("shard %d: %v", res.shard, res.err))
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, resp)
}

// handleClusterHealth reports the prober's membership view; with no
// prober configured the body is {"enabled": false}.
func (rt *Router) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	if rt.prober == nil {
		server.WriteJSON(w, http.StatusOK, ClusterHealthResponse{Enabled: false})
		return
	}
	server.WriteJSON(w, http.StatusOK, rt.prober.snapshot())
}

// handleMetrics serves the router's own registry as Prometheus text
// exposition (a ?format=prom is ignored), or the whole cluster's with
// ?federate=1.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("federate") == "1" {
		rt.handleFederate(w, r)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_ = rt.registry.WritePrometheus(w)
}
