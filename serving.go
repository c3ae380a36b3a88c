package graphsig

// Serving layer: the windowed signature store and the sigserverd HTTP
// service around it. These aliases expose the online subsystem to
// external users the same way the batch and streaming APIs are exposed
// in graphsig.go.

import (
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/store"
)

type (
	// SignatureStore is a goroutine-safe bounded archive of the last N
	// windows' signature sets over a shared Universe.
	SignatureStore = store.Store
	// SignatureStoreConfig sizes a SignatureStore.
	SignatureStoreConfig = store.Config
	// StoreSearchOptions parameterizes a nearest-signature search.
	StoreSearchOptions = store.SearchOptions
	// StoreHit is one nearest-signature search result.
	StoreHit = store.Hit
	// StoreHistoryEntry is one archived window of a label's history.
	StoreHistoryEntry = store.HistoryEntry

	// SignatureServer is the HTTP signature service: streaming ingest
	// into a SignatureStore plus search, history, watchlist and anomaly
	// endpoints.
	SignatureServer = server.Server
	// ServerConfig parameterizes a SignatureServer.
	ServerConfig = server.Config
	// ServerClient is the typed HTTP client for a running server
	// (also the transport behind `sigtool client`).
	ServerClient = server.Client
	// ServerRecovery reports what NewServer reconstructed from disk
	// (snapshot restored/quarantined, WAL replay statistics).
	ServerRecovery = server.Recovery

	// MetricsRegistry is the observability registry every serving layer
	// records into: counters, gauges and log-bucketed histograms,
	// rendered as Prometheus text exposition (see SignatureServer's
	// GET /metrics). Library users embedding a SignatureStore directly
	// can pass their own via SignatureStoreConfig.Registry.
	MetricsRegistry = obs.Registry
	// LatencyHistogram is a lock-free log-bucketed histogram with
	// p50/p90/p99 quantile estimates.
	LatencyHistogram = obs.Histogram
	// RequestTracer mints per-request traces with named child spans; a
	// bounded ring of recent traces is served at GET /v1/traces.
	RequestTracer = obs.Tracer
	// TraceSnapshot is one archived trace (ID, duration, spans).
	TraceSnapshot = obs.TraceSnapshot
)

// NewMetricsRegistry builds an empty observability registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Float64 returns a pointer to v, for optional ServerConfig fields
// such as WatchMaxDist.
func Float64(v float64) *float64 { return server.Float64(v) }

// NewSignatureStore builds an empty store.
func NewSignatureStore(cfg SignatureStoreConfig) (*SignatureStore, error) {
	return store.New(cfg)
}

// LoadSignatureStore rebuilds a store from a snapshot directory written
// by SignatureStore.Save.
func LoadSignatureStore(dir string, cfg SignatureStoreConfig) (*SignatureStore, error) {
	return store.Load(dir, cfg)
}

// NewServer builds the signature service; serve its Handler() with any
// http.Server (see cmd/sigserverd for the full daemon).
func NewServer(cfg ServerConfig) (*SignatureServer, error) {
	return server.New(cfg)
}

// NewServerClient returns a client for a server at base, e.g.
// "http://127.0.0.1:8787".
func NewServerClient(base string) *ServerClient {
	return server.NewClient(base)
}
