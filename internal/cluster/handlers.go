package cluster

import (
	"fmt"
	"net/http"
	"time"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// The router's HTTP surface: server.Routes serves the query and watch
// routes from the Router's server.API methods, the same handler set a
// node serves them from. Beside them, POST /v1/flows, whose admission
// is the router's own (a partial fan-out answers 502 with the per-shard
// accounting), and the routes only a router has: its health, readiness,
// the cluster's membership view, its metrics (or the cluster's) and its
// stitched traces. Persistence and replication are node-only.

func (rt *Router) routes() {
	server.Routes(rt.mux, rt, rt.startTrace)
	rt.mux.HandleFunc("POST /v1/flows", rt.handleFlows)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /v1/cluster/health", rt.handleClusterHealth)
	rt.mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		server.WriteTraces(w, r, rt.tracer)
	})
	rt.mux.HandleFunc("GET /v1/traces/{id}", rt.handleTraceByID)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
}

// startTrace begins the router trace "route.<name>" of an HTTP request,
// adopting an inbound X-Sig-Trace context when present, and advertises
// the minted context back to the caller in the response headers — so
// any routed call's trace is one response header away from `sigtool
// trace <id>`.
func (rt *Router) startTrace(w http.ResponseWriter, r *http.Request, name string) *obs.Trace {
	tr := rt.tracer.StartRemote("route."+name, obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)))
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
	tr := rt.startTrace(w, r, "ingest")
	defer tr.Finish()
	resp, err := rt.Ingest(server.WithTrace(r.Context(), tr), batchID, records)
	if err != nil {
		// Partial ingest: some shards applied their partitions, others
		// did not. 502 tells the client to retry (with the same batch ID
		// for exactly-once); the body carries the partial accounting.
		server.WriteJSON(w, http.StatusBadGateway, resp)
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
