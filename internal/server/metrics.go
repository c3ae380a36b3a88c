package server

import (
	"graphsig/internal/obs"
)

// metrics is the server's counter set, registered in the shared obs
// registry and rendered by GET /metrics. Counters (not gauges) so
// scrapers can rate() them; latency lives in the per-route request
// histogram (see serverObs).
type metrics struct {
	FlowsReceived  *obs.Counter // records arriving at POST /v1/flows
	FlowsAccepted  *obs.Counter // records the pipeline ingested
	FlowsDropped   *obs.Counter // records filtered (e.g. non-TCP)
	FlowsRejected  *obs.Counter // records the pipeline refused
	WindowsClosed  *obs.Counter // signature sets emitted into the store
	SearchQueries  *obs.Counter // search queries served (singles + batch slots)
	BatchSearches  *obs.Counter // POST /v1/search/batch requests served
	HistoryQueries *obs.Counter // GET /v1/signatures/{label} served
	AnomalyQueries *obs.Counter // GET /v1/anomalies served
	WatchlistAdds  *obs.Counter // archived watchlist signatures
	WatchlistHits  *obs.Counter // hits recorded at window close
	HTTPRequests   *obs.Counter // all requests routed
	HTTPErrors     *obs.Counter // responses with status >= 400

	// Durability and ingest-hardening counters.
	SnapshotSaves       *obs.Counter // successful store.Save calls
	SnapshotErrors      *obs.Counter // failed store.Save calls
	SnapshotQuarantines *obs.Counter // corrupt snapshots renamed aside at boot
	WALAppendedRecords  *obs.Counter // records framed into the WAL
	WALReplayedRecords  *obs.Counter // records replayed from the WAL at boot
	WALResets           *obs.Counter // log truncations after checkpoints
	WALErrors           *obs.Counter // failed WAL appends/resets (degraded durability)
	WALQuarantines      *obs.Counter // corrupt WALs renamed aside at boot
	IngestThrottled     *obs.Counter // POST /v1/flows rejected with 429
	BatchesDeduped      *obs.Counter // batch IDs answered from the dedup set
	Promotions          *obs.Counter // follower-to-primary promotions served
}

// newMetrics registers the counter set.
func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		FlowsReceived:  reg.Counter("flows_received", "records arriving at POST /v1/flows"),
		FlowsAccepted:  reg.Counter("flows_accepted", "records the pipeline ingested"),
		FlowsDropped:   reg.Counter("flows_dropped", "records filtered (e.g. non-TCP)"),
		FlowsRejected:  reg.Counter("flows_rejected", "records the pipeline refused"),
		WindowsClosed:  reg.Counter("windows_closed", "signature sets committed to the store"),
		SearchQueries:  reg.Counter("search_queries", "search queries served, counting each batch slot"),
		BatchSearches:  reg.Counter("batch_searches", "POST /v1/search/batch requests served"),
		HistoryQueries: reg.Counter("history_queries", "GET /v1/signatures/{label} requests served"),
		AnomalyQueries: reg.Counter("anomaly_queries", "GET /v1/anomalies requests served"),
		WatchlistAdds:  reg.Counter("watchlist_adds", "signatures archived into the watchlist"),
		WatchlistHits:  reg.Counter("watchlist_hits", "watchlist hits recorded at window close"),
		HTTPRequests:   reg.Counter("http_requests_total", "HTTP requests routed"),
		HTTPErrors:     reg.Counter("http_errors_total", "HTTP responses with status >= 400"),

		SnapshotSaves:       reg.Counter("snapshot_saves", "successful snapshot saves"),
		SnapshotErrors:      reg.Counter("snapshot_errors", "failed snapshot saves"),
		SnapshotQuarantines: reg.Counter("snapshot_quarantines", "corrupt snapshots renamed aside at boot"),
		WALAppendedRecords:  reg.Counter("wal_appended_records", "records framed into the WAL"),
		WALReplayedRecords:  reg.Counter("wal_replayed_records", "records replayed from the WAL at boot"),
		WALResets:           reg.Counter("wal_resets", "WAL truncations after checkpoints"),
		WALErrors:           reg.Counter("wal_errors", "failed WAL appends and resets"),
		WALQuarantines:      reg.Counter("wal_quarantines", "corrupt WALs renamed aside at boot"),
		IngestThrottled:     reg.Counter("ingest_throttled", "ingest batches rejected with 429"),
		BatchesDeduped:      reg.Counter("batches_deduped", "batch IDs answered from the dedup set"),
		Promotions:          reg.Counter("promotions", "follower-to-primary promotions performed"),
	}
}
