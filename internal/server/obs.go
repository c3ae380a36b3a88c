package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphsig/internal/obs"
)

// DefaultTraceCapacity bounds the recent-trace ring served by GET
// /v1/traces when Config.TraceCapacity is zero.
const DefaultTraceCapacity = 64

// serverObs bundles the server's observability surface: the shared
// metric registry every layer records into, the request tracer, and
// the per-route HTTP latency histogram. Every request is observed in
// exactly one route, so folding the routes (obs.Family.Histogram) gives
// the node's request latency.
type serverObs struct {
	registry     *obs.Registry
	tracer       *obs.Tracer
	routeSeconds *obs.HistogramVec
}

func newServerObs(logger *slog.Logger, slowOp time.Duration, traceCap int) *serverObs {
	reg := obs.NewRegistry()
	if traceCap <= 0 {
		traceCap = DefaultTraceCapacity
	}
	return &serverObs{
		registry: reg,
		tracer:   obs.NewTracer(traceCap, slowOp, logger),
		routeSeconds: reg.HistogramVec("http_route_seconds",
			"HTTP request latency by route", "route", nil),
	}
}

// routeName maps a request onto the bounded label set of the per-route
// histogram family, so path-scanning traffic cannot grow it without
// bound. Unknown paths collapse into "other".
func routeName(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/v1/signatures/") {
		p = "/v1/signatures/label"
	}
	if strings.HasPrefix(p, "/v1/traces/") {
		p = "/v1/traces/id"
	}
	switch p {
	case "/v1/flows", "/v1/signatures/label", "/v1/search", "/v1/search/batch", "/v1/watchlist",
		"/v1/watchlist/hits", "/v1/anomalies", "/v1/persistence",
		"/v1/replication/status", "/v1/replication/wal", "/v1/traces", "/v1/traces/id",
		"/healthz", "/readyz", "/metrics":
	default:
		return "other"
	}
	return strings.ToLower(r.Method) + strings.ReplaceAll(p, "/", "_")
}

// startTrace begins a request trace, adopting the inbound X-Sig-Trace
// context when the caller (the cluster router) sent one — the local
// ring then records this work as a child segment of the caller's span
// under the caller's trace ID — and minting a fresh trace otherwise.
func (s *Server) startTrace(r *http.Request, name string) *obs.Trace {
	return s.obs.tracer.StartRemote(name, obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)))
}

// traceRemote is startTrace for cheap read endpoints: it records a
// trace only when the request carries an inbound context, so
// single-node traffic on history/anomaly/watchlist reads cannot flood
// the bounded trace ring. Returns nil (a no-op trace) otherwise.
func (s *Server) traceRemote(r *http.Request, name string) *obs.Trace {
	tc := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	if !tc.Valid() {
		return nil
	}
	return s.obs.tracer.StartRemote(name, tc)
}

// Registry exposes the server's metric registry so embedders (the
// daemon, the facade, tests) can register their own families alongside
// the serving stack's.
func (s *Server) Registry() *obs.Registry { return s.obs.registry }

// Tracer exposes the server's request tracer.
func (s *Server) Tracer() *obs.Tracer { return s.obs.tracer }

// handleMetrics serves the registry as Prometheus text exposition. A
// ?format=prom is ignored, so scrape configs that still send it keep
// working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.obs.registry.WritePrometheus(w)
}

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
	// Node is this process's cluster identity, when configured.
	Node *Identity `json:"node,omitempty"`
}

// readiness reports whether the server can take traffic and why not.
// Distinct from /healthz (process liveness): readiness degrades when
// durability is configured but the WAL is not open, or during
// shutdown, so load balancers drain before the listener dies.
func (s *Server) readiness() ReadyResponse {
	var reasons []string
	// Promote rewrites the durability fields of cfg under mu, so they
	// must be read under the lock here.
	s.mu.RLock()
	if s.store == nil {
		reasons = append(reasons, "store not loaded")
	}
	if s.cfg.SnapshotDir != "" && !s.cfg.DisableWAL && s.wal == nil {
		reasons = append(reasons, "write-ahead log not open")
	}
	s.mu.RUnlock()
	if s.shuttingDown.Load() {
		reasons = append(reasons, "shutting down")
	}
	return ReadyResponse{Ready: len(reasons) == 0, Reasons: reasons, Node: s.Identity()}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := s.readiness()
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// TracesResponse is the GET /v1/traces body: the most recent traces,
// newest first.
type TracesResponse struct {
	Total  uint64              `json:"total"`
	Traces []obs.TraceSnapshot `json:"traces"`
}

// WriteTraces answers GET /v1/traces from tr: the newest ?n= traces,
// the whole ring without it, newest first. A bad n is a 400. The
// cluster router serves its own ring through it too.
func WriteTraces(w http.ResponseWriter, r *http.Request, tr *obs.Tracer) {
	n := 0 // whole ring
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "bad n parameter %q", ns)
			return
		}
		n = v
	}
	traces := tr.Recent(n)
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	WriteJSON(w, http.StatusOK, TracesResponse{Total: tr.Total(), Traces: traces})
}

// handleTraceByID serves one retained trace from the ring — the
// cluster router's trace stitching fetches each node's segment of a
// distributed trace this way.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.obs.tracer.Find(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "trace %q not retained here (never finished or evicted)", id)
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}
