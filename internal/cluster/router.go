package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphsig/internal/apps"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/store"
)

// DefaultScatterTimeout bounds each scatter-gather fan-out when
// Config.Timeout is zero.
const DefaultScatterTimeout = 5 * time.Second

// maxThrottleRetries bounds the router-side re-sends of a sub-batch
// whose shard keeps answering 429 after the client's own retries are
// exhausted. A 429 means the shard is alive and shedding load, so the
// router waits out the advertised Retry-After (via the client's
// saturating jittered backoff) instead of failing the sub-batch.
const maxThrottleRetries = 3

// Config parameterizes a Router.
type Config struct {
	// Shards is the per-shard seed address list: Shards[i] holds one or
	// more base URLs for shard i (failover rotates through them). The
	// ring size is len(Shards); its order is the shard numbering, so it
	// must be identical on every router.
	Shards [][]string
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	// Must match across routers for placement to agree.
	VNodes int
	// Timeout bounds each per-shard call during scatter-gather; shards
	// that miss it are reported as degraded, not failed requests.
	Timeout time.Duration
	// MaxRetries configures the per-shard clients (0 keeps the client
	// default; negative disables retries).
	MaxRetries int
	// Followers is the per-shard follower address list: Followers[i]
	// holds base URLs of processes tailing shard i's WAL. With a Health
	// prober configured, reads fail over to the freshest follower while
	// shard i's primary is down, and a promoted follower takes over the
	// slot entirely. May be nil or shorter than Shards.
	Followers [][]string
	// Health, when non-nil, enables the health prober that feeds the
	// failover view (and auto-promotion, if HealthConfig.AutoPromote is
	// set). Call Prober().Start() to begin wall-clock probing; tests
	// drive Prober().ProbeOnce() instead.
	Health *HealthConfig
	// Logger receives operational warnings (shard errors, degraded
	// fan-outs).
	Logger *slog.Logger
	// SlowOp is the span duration at or above which the router's tracer
	// logs a slow-operation warning (0 disables).
	SlowOp time.Duration
	// TraceCapacity bounds the router's recent-trace ring served at GET
	// /v1/traces (0 = the obs default of 64).
	TraceCapacity int
}

// Router scatters ingest across shards by ring placement and gathers
// shard answers into responses bit-identical to a single node holding
// the union — as long as every shard runs a per-source-local scheme
// and the same distance kernels (see the package comment).
type Router struct {
	ring      *Ring
	clients   []*server.Client
	followers [][]*server.Client // per shard, parallel to Config.Followers
	prober    *Prober            // nil without Config.Health
	timeout   time.Duration
	logger    *slog.Logger
	start     time.Time

	registry      *obs.Registry
	tracer        *obs.Tracer
	mux           *http.ServeMux
	routedFlows   *obs.CounterVec // records routed, by shard
	failoverReads *obs.CounterVec // reads served by a follower, by shard
	partials      *obs.Counter    // fan-outs answered with shards_ok < shards_total
	throttleWaits *obs.Counter    // routed ingest retries after shard 429s
	httpRequests  *obs.Counter
	httpErrors    *obs.Counter
	scrapeErrors  *obs.Counter // federation scrapes that failed
}

// NewRouter builds the router and its ring.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	ring, err := NewRing(len(cfg.Shards), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring:     ring,
		timeout:  cfg.Timeout,
		logger:   cfg.Logger,
		start:    time.Now(),
		registry: obs.NewRegistry(),
		tracer:   obs.NewTracer(cfg.TraceCapacity, cfg.SlowOp, cfg.Logger),
		mux:      http.NewServeMux(),
	}
	if rt.timeout <= 0 {
		rt.timeout = DefaultScatterTimeout
	}
	newClient := func(seeds []string) *server.Client {
		c := server.NewClient(seeds[0], seeds[1:]...)
		c.HTTP = &http.Client{Timeout: rt.timeout}
		if cfg.MaxRetries != 0 {
			c.MaxRetries = cfg.MaxRetries
		}
		return c
	}
	for i, seeds := range cfg.Shards {
		if len(seeds) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no seed addresses", i)
		}
		rt.clients = append(rt.clients, newClient(seeds))
		var fcs []*server.Client
		if i < len(cfg.Followers) {
			for _, fb := range cfg.Followers[i] {
				fcs = append(fcs, newClient([]string{fb}))
			}
		}
		rt.followers = append(rt.followers, fcs)
	}
	rt.registry.SetConstLabels(map[string]string{
		"role":       "router",
		"ring_epoch": strconv.FormatUint(ring.Epoch(), 10),
	})
	rt.routedFlows = rt.registry.CounterVec("routed_flows_total", "flow records routed, by shard", "shard")
	rt.failoverReads = rt.registry.CounterVec("failover_reads_total", "reads served by a follower while the primary was down, by shard", "shard")
	rt.partials = rt.registry.Counter("partial_results", "fan-outs answered with shards_ok < shards_total")
	rt.throttleWaits = rt.registry.Counter("ingest_throttle_retries", "routed ingest retries after shard 429 responses")
	rt.httpRequests = rt.registry.Counter("http_requests_total", "HTTP requests routed")
	rt.httpErrors = rt.registry.Counter("http_errors_total", "HTTP responses with status >= 400")
	rt.scrapeErrors = rt.registry.Counter("federate_scrape_errors", "node scrapes that failed during metrics federation")
	rt.registry.GaugeFunc("uptime_seconds", "seconds since router start",
		func() int64 { return int64(time.Since(rt.start).Seconds()) })
	if cfg.Health != nil {
		primaries := make([]string, len(cfg.Shards))
		for i, seeds := range cfg.Shards {
			primaries[i] = seeds[0]
		}
		rt.prober = newProber(*cfg.Health, primaries, cfg.Followers, rt.registry, rt.tracer, cfg.Logger)
	}
	rt.routes()
	return rt, nil
}

// Prober exposes the health prober (nil without Config.Health). The
// caller owns its lifecycle: Start for wall-clock probing, ProbeOnce
// for deterministic stepping, Stop on shutdown.
func (rt *Router) Prober() *Prober { return rt.prober }

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

// readClient picks the client answering reads for one shard: the
// primary while it is not Down, a promoted follower from the moment the
// prober observes one, otherwise the freshest serving follower — with
// the staleness it implies — and, with nothing better, the primary
// anyway so the caller gets a real error instead of a silent gap.
func (rt *Router) readClient(s int) (*server.Client, *StaleShard) {
	if rt.prober == nil {
		return rt.clients[s], nil
	}
	t := rt.prober.target(s)
	if t.promoted >= 0 {
		return rt.followers[s][t.promoted], nil
	}
	if !t.primaryDown {
		return rt.clients[s], nil
	}
	if t.freshest >= 0 {
		rt.failoverReads.With(strconv.Itoa(s)).Add(1)
		return rt.followers[s][t.freshest],
			&StaleShard{Shard: s, Gen: t.gen, Offset: t.off, BehindSeconds: t.behindSec}
	}
	return rt.clients[s], nil
}

// writeClient picks the client taking writes for one shard: the
// promoted follower once one exists — even if the old primary
// resurfaces, since the promoted node owns the bumped ring epoch and
// the stale primary must not take writes — otherwise the primary.
func (rt *Router) writeClient(s int) *server.Client {
	if rt.prober == nil {
		return rt.clients[s]
	}
	if t := rt.prober.target(s); t.promoted >= 0 {
		return rt.followers[s][t.promoted]
	}
	return rt.clients[s]
}

// readClients resolves every shard's read client up front (routing
// decisions happen before the fan-out, not inside its goroutines) and
// returns the staleness the selection implies — nil when every shard is
// answered authoritatively, so the response field serializes away.
func (rt *Router) readClients() ([]*server.Client, []StaleShard) {
	clients := make([]*server.Client, rt.ring.Shards())
	var stale []StaleShard
	for s := range clients {
		c, st := rt.readClient(s)
		clients[s] = c
		if st != nil {
			stale = append(stale, *st)
		}
	}
	return clients, stale
}

// Ring exposes the router's placement ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry exposes the router's metric registry.
func (rt *Router) Registry() *obs.Registry { return rt.registry }

// Tracer exposes the router's request tracer.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// Identity describes the router in /readyz.
func (rt *Router) Identity() *server.Identity {
	return &server.Identity{Role: "router", Shards: rt.ring.Shards(), RingEpoch: rt.ring.Epoch()}
}

func (rt *Router) logf(format string, args ...any) {
	if rt.logger != nil {
		rt.logger.Warn(fmt.Sprintf(format, args...))
	}
}

// shardResult carries one shard's answer through a scatter.
type shardResult[T any] struct {
	shard  int
	val    T
	err    error
	micros int64 // wall time of this shard's call, for ?debug=1
}

// errScatterTimeout marks a shard that missed the fan-out deadline.
var errScatterTimeout = fmt.Errorf("cluster: shard missed the scatter deadline")

// scatter fans fn out to the given shards concurrently and collects
// answers until the deadline. Shards that miss it are reported with
// errScatterTimeout; their goroutines finish in the background (the
// per-shard HTTP timeout bounds the leak) and their late answers are
// discarded.
//
// Each shard call runs under its own span of tr ("<op>.shard<N>") and
// receives that span's trace context, which the caller forwards via
// Client.Traced so the shard's local trace records as a child of this
// fan-out. A shard that answers after the trace finished still closes
// its span; the append lands on an already-archived trace and is
// simply dropped with it.
func scatter[T any](rt *Router, tr *obs.Trace, op string, shards []int, fn func(shard int, tc obs.TraceContext) (T, error)) []shardResult[T] {
	ch := make(chan shardResult[T], len(shards))
	for _, s := range shards {
		go func(s int) {
			end, tc := tr.SpanWith(fmt.Sprintf("%s.shard%d", op, s))
			begin := time.Now()
			v, err := fn(s, tc)
			end()
			ch <- shardResult[T]{shard: s, val: v, err: err, micros: time.Since(begin).Microseconds()}
		}(s)
	}
	out := make([]shardResult[T], 0, len(shards))
	byShard := make(map[int]shardResult[T], len(shards))
	timer := time.NewTimer(rt.timeout)
	defer timer.Stop()
collect:
	for range shards {
		select {
		case r := <-ch:
			byShard[r.shard] = r
		case <-timer.C:
			break collect
		}
	}
	for _, s := range shards {
		r, ok := byShard[s]
		if !ok {
			r = shardResult[T]{shard: s, err: errScatterTimeout}
		}
		if r.err != nil {
			rt.logf("sigrouter: shard %d: %v", s, r.err)
		}
		out = append(out, r)
	}
	return out
}

// allShards lists every shard index.
func (rt *Router) allShards() []int {
	out := make([]int, rt.ring.Shards())
	for i := range out {
		out[i] = i
	}
	return out
}

// IngestResponse is the routed POST /v1/flows body: the merged ingest
// result plus fan-out accounting.
type IngestResponse struct {
	server.IngestResult
	ShardsOK    int `json:"shards_ok"`
	ShardsTotal int `json:"shards_total"`
}

// Ingest partitions records by ring placement of their source label
// (preserving arrival order within each shard, so per-shard streams
// stay time-ordered) and sends each shard its partition as one batch.
//
// Exactly-once: each shard batch carries the ID "<batchID>/<shard>".
// The per-shard client retries transient failures under that same ID,
// and the shard's dedup set absorbs retries of an already-applied
// batch — including a retry of the whole routed call under the same
// parent ID, which re-derives the same sub-IDs. A caller that retries
// a partially failed routed ingest with the same parent ID therefore
// re-applies only the partitions that did not land.
func (rt *Router) Ingest(batchID string, records []netflow.Record) (IngestResponse, error) {
	tr := rt.tracer.Start("route.ingest")
	defer tr.Finish()
	return rt.ingest(tr, batchID, records)
}

func (rt *Router) ingest(tr *obs.Trace, batchID string, records []netflow.Record) (IngestResponse, error) {
	parts := make(map[int][]netflow.Record)
	for i := range records {
		s := rt.ring.Shard(records[i].Src)
		parts[s] = append(parts[s], records[i])
	}
	shards := make([]int, 0, len(parts))
	for s := range parts {
		shards = append(shards, s)
	}
	sort.Ints(shards)

	resp := IngestResponse{ShardsTotal: len(shards)}
	resp.Received = len(records)
	results := scatter(rt, tr, "ingest", shards, func(s int, tc obs.TraceContext) (server.IngestResult, error) {
		id := ""
		if batchID != "" {
			id = batchID + "/" + strconv.Itoa(s)
		}
		c := rt.writeClient(s).Traced(tc)
		res, err := c.IngestBatch(id, parts[s])
		for attempt := 0; attempt < maxThrottleRetries &&
			server.APIStatus(err) == http.StatusTooManyRequests; attempt++ {
			rt.throttleWaits.Add(1)
			time.Sleep(c.Backoff(attempt, server.RetryAfter(err)))
			res, err = c.IngestBatch(id, parts[s])
		}
		if err == nil {
			rt.routedFlows.With(strconv.Itoa(s)).Add(int64(len(parts[s])))
		}
		return res, err
	})
	var errs []string
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, fmt.Sprintf("shard %d: %v", r.shard, r.err))
			continue
		}
		resp.ShardsOK++
		resp.Accepted += r.val.Accepted
		resp.Dropped += r.val.Dropped
		resp.Rejected += r.val.Rejected
		resp.WindowsClosed += r.val.WindowsClosed
		resp.Errors = append(resp.Errors, r.val.Errors...)
		resp.Deduplicated = resp.Deduplicated || r.val.Deduplicated
		if r.val.CurrentWindow > resp.CurrentWindow {
			resp.CurrentWindow = r.val.CurrentWindow
		}
	}
	if resp.ShardsOK < resp.ShardsTotal {
		rt.partials.Add(1)
		return resp, fmt.Errorf("cluster: ingest landed on %d/%d shards: %s",
			resp.ShardsOK, resp.ShardsTotal, strings.Join(errs, "; "))
	}
	return resp, nil
}

// SearchResponse is the routed POST /v1/search body.
type SearchResponse struct {
	Distance    string                 `json:"distance"`
	Hits        []server.SearchHitJSON `json:"hits"`
	ShardsOK    int                    `json:"shards_ok"`
	ShardsTotal int                    `json:"shards_total"`
	StaleShards []StaleShard           `json:"stale_shards,omitempty"`
	TraceID     string                 `json:"trace_id,omitempty"`
	Debug       []ShardDebugJSON       `json:"debug,omitempty"`
}

// ShardDebugJSON is one shard's per-query explain block, returned when
// the request sets debug (or ?debug=1): wall time of the routed call as
// seen from the router, plus the shard's own probe count.
type ShardDebugJSON struct {
	Shard  int    `json:"shard"`
	Micros int64  `json:"micros"`
	Probes int    `json:"probes"`
	Error  string `json:"error,omitempty"`
}

// shardDebug assembles the explain blocks for one scatter's results.
func shardDebug[T any](results []shardResult[T], dbg func(T) *server.SearchDebugJSON) []ShardDebugJSON {
	out := make([]ShardDebugJSON, 0, len(results))
	for _, r := range results {
		d := ShardDebugJSON{Shard: r.shard, Micros: r.micros}
		if r.err != nil {
			d.Error = r.err.Error()
		} else if sd := dbg(r.val); sd != nil {
			d.Probes = sd.Probes
		}
		out = append(out, d)
	}
	return out
}

// Search fans the query out to every shard and merges the per-shard
// top-k lists under the store's exact comparator (dist asc, window
// desc, label asc), truncating to k. Each shard returns its own top-k,
// and the global top-k of a union is a subset of the per-shard top-ks,
// so the merged list is bit-identical to a single node searching the
// union — with the cardinality-exact distances (jaccard and friends)
// unconditionally, and for order-sensitive float kernels up to ulp
// differences from summation order (see DESIGN.md §12).
//
// Label queries resolve the label's latest archived signature at its
// owner shard first, then scatter it as a signature query with the
// label excluded — exactly what SearchLabel does on a single node.
func (rt *Router) Search(req server.SearchRequest) (SearchResponse, error) {
	tr := rt.tracer.Start("route.search")
	defer tr.Finish()
	return rt.search(tr, req)
}

func (rt *Router) search(tr *obs.Trace, req server.SearchRequest) (SearchResponse, error) {
	if req.Label != "" && req.Signature != nil {
		return SearchResponse{}, fmt.Errorf("cluster: set either label or signature, not both")
	}
	if req.K <= 0 {
		req.K = store.DefaultTopK
	}
	if req.Label != "" {
		resolved, err := rt.resolveLabelQuery(tr, req)
		if err != nil {
			return SearchResponse{}, err
		}
		req = resolved
	}

	clients, stale := rt.readClients()
	results := scatter(rt, tr, "search", rt.allShards(), func(s int, tc obs.TraceContext) (server.SearchResponse, error) {
		return clients[s].Traced(tc).Search(req)
	})
	// Non-nil even when empty: the routed body must serialize exactly
	// like a single node's ("hits": [], never null).
	resp := SearchResponse{ShardsTotal: len(results), Hits: []server.SearchHitJSON{}, StaleShards: stale}
	if req.Debug {
		resp.TraceID = tr.ID()
		resp.Debug = shardDebug(results, func(v server.SearchResponse) *server.SearchDebugJSON { return v.Debug })
	}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		resp.ShardsOK++
		resp.Distance = r.val.Distance
		resp.Hits = append(resp.Hits, r.val.Hits...)
	}
	if resp.ShardsOK == 0 {
		return resp, fmt.Errorf("cluster: search failed on all %d shards", resp.ShardsTotal)
	}
	if resp.ShardsOK < resp.ShardsTotal {
		rt.partials.Add(1)
	}
	sortSearchHits(resp.Hits)
	if len(resp.Hits) > req.K {
		resp.Hits = resp.Hits[:req.K]
	}
	return resp, nil
}

// resolveLabelQuery rewrites a label query into the equivalent
// signature query by fetching the label's latest archived signature
// from its owner shard (the one shard that stores it), excluding the
// label from the results — exactly what SearchLabel does on a single
// node.
func (rt *Router) resolveLabelQuery(tr *obs.Trace, req server.SearchRequest) (server.SearchRequest, error) {
	owner := rt.ring.Shard(req.Label)
	oc, _ := rt.readClient(owner)
	end, tc := tr.SpanWith(fmt.Sprintf("resolve.shard%d", owner))
	defer end()
	// Newest first, one entry to begin with: the newest archived
	// signature is almost always non-empty, and asking for just it keeps
	// the owner from parsing a cold block per window the label ever
	// appeared in. When it is empty the page widens and moves back.
	q := server.HistoryQuery{Limit: 1}
	for {
		hist, err := oc.Traced(tc).HistoryRange(req.Label, q)
		if err != nil {
			return req, fmt.Errorf("cluster: resolving label %q at shard %d: %w", req.Label, owner, err)
		}
		for i := len(hist.History) - 1; i >= 0; i-- {
			if len(hist.History[i].Signature.Nodes) > 0 {
				req.Signature = &hist.History[i].Signature
				req.ExcludeLabel = req.Label
				req.Label = ""
				return req, nil
			}
		}
		if !hist.Truncated || len(hist.History) == 0 {
			return req, fmt.Errorf("cluster: label %q has no archived signature", req.Label)
		}
		q = server.HistoryQuery{To: hist.History[0].Window - 1, HasTo: true, Limit: 4 * q.Limit}
	}
}

// sortSearchHits orders merged shard hits under the store's exact
// comparator (dist asc, window desc, label asc), so the routed top-k
// cut reproduces a single node's.
func sortSearchHits(hits []server.SearchHitJSON) {
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		if a.Window != b.Window {
			return a.Window > b.Window
		}
		return a.Label < b.Label
	})
}

// BatchSearchResponse is the routed POST /v1/search/batch body.
// Results[i] answers Queries[i].
type BatchSearchResponse struct {
	Distance    string                     `json:"distance"`
	Results     []server.BatchSearchResult `json:"results"`
	ShardsOK    int                        `json:"shards_ok"`
	ShardsTotal int                        `json:"shards_total"`
	StaleShards []StaleShard               `json:"stale_shards,omitempty"`
	TraceID     string                     `json:"trace_id,omitempty"`
	Debug       []ShardDebugJSON           `json:"debug,omitempty"`
}

// SearchBatch fans a whole query batch out to every shard in ONE
// scatter — each shard answers all slots against a single ring
// snapshot with one pooled kernel scratch — then merges every slot's
// per-shard top-k lists under the store comparator, exactly as Search
// does for a single query. Label slots resolve at their owner shard
// first; slots that fail to resolve carry their error without failing
// the batch or the fan-out.
func (rt *Router) SearchBatch(req server.BatchSearchRequest) (BatchSearchResponse, error) {
	tr := rt.tracer.Start("route.search.batch")
	defer tr.Finish()
	return rt.searchBatch(tr, req)
}

func (rt *Router) searchBatch(tr *obs.Trace, req server.BatchSearchRequest) (BatchSearchResponse, error) {
	if len(req.Queries) == 0 {
		return BatchSearchResponse{}, fmt.Errorf("cluster: batch search needs at least one query")
	}
	results := make([]server.BatchSearchResult, len(req.Queries))
	ks := make([]int, len(req.Queries))
	fan := server.BatchSearchRequest{Distance: req.Distance, Debug: req.Debug}
	slots := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		if q.Label != "" && q.Signature != nil {
			results[i].Error = "set either label or signature, not both"
			continue
		}
		if q.K <= 0 {
			q.K = store.DefaultTopK
		}
		ks[i] = q.K
		if q.Label != "" {
			resolved, err := rt.resolveLabelQuery(tr, q)
			if err != nil {
				results[i].Error = err.Error()
				continue
			}
			q = resolved
		}
		fan.Queries = append(fan.Queries, q)
		slots = append(slots, i)
	}

	clients, stale := rt.readClients()
	resp := BatchSearchResponse{Distance: req.Distance, Results: results,
		ShardsTotal: rt.ring.Shards(), StaleShards: stale}
	if len(fan.Queries) == 0 {
		// Every slot failed resolution; nothing to scatter.
		resp.ShardsOK = resp.ShardsTotal
		return resp, nil
	}
	answers := scatter(rt, tr, "search.batch", rt.allShards(), func(s int, tc obs.TraceContext) (server.BatchSearchResponse, error) {
		return clients[s].Traced(tc).SearchBatch(fan)
	})
	for _, r := range answers {
		if r.err != nil {
			continue
		}
		resp.ShardsOK++
		resp.Distance = r.val.Distance
	}
	if req.Debug {
		resp.TraceID = tr.ID()
		resp.Debug = shardDebug(answers, func(v server.BatchSearchResponse) *server.SearchDebugJSON { return v.Debug })
	}
	if resp.ShardsOK == 0 {
		return resp, fmt.Errorf("cluster: batch search failed on all %d shards", resp.ShardsTotal)
	}
	if resp.ShardsOK < resp.ShardsTotal {
		rt.partials.Add(1)
	}
	for k, slot := range slots {
		merged := []server.SearchHitJSON{}
		slotErr := ""
		for _, r := range answers {
			if r.err != nil || k >= len(r.val.Results) {
				continue
			}
			sr := r.val.Results[k]
			if sr.Error != "" {
				// Shard-side slot errors (a malformed signature, say) are
				// deterministic across shards: every shard reports the same
				// one, so keeping the last seen loses nothing.
				slotErr = sr.Error
				continue
			}
			merged = append(merged, sr.Hits...)
		}
		if slotErr != "" && len(merged) == 0 {
			results[slot].Error = slotErr
			continue
		}
		sortSearchHits(merged)
		if len(merged) > ks[slot] {
			merged = merged[:ks[slot]]
		}
		results[slot].Hits = merged
	}
	return resp, nil
}

// AnomaliesResponse is the routed GET /v1/anomalies body.
type AnomaliesResponse struct {
	FromWindow  int                  `json:"from_window"`
	ToWindow    int                  `json:"to_window"`
	Mean        float64              `json:"mean_persistence"`
	StdDev      float64              `json:"stddev_persistence"`
	Anomalies   []server.AnomalyJSON `json:"anomalies"`
	ShardsOK    int                  `json:"shards_ok"`
	ShardsTotal int                  `json:"shards_total"`
	StaleShards []StaleShard         `json:"stale_shards,omitempty"`
}

// Anomalies fetches every shard's label-keyed persistence pairs,
// merges them (shards hold disjoint label sets), and runs the same
// label-ordered detection a single node runs — so the population
// mean/stddev and the flagged set are bit-identical to a single node
// holding the union. Shards reporting a different window pair than the
// newest one seen (a lagging shard mid-window-close) are counted as
// degraded rather than polluting the population.
func (rt *Router) Anomalies(distance string, zCut float64) (AnomaliesResponse, error) {
	tr := rt.tracer.Start("route.anomalies")
	defer tr.Finish()
	return rt.anomalies(tr, distance, zCut)
}

func (rt *Router) anomalies(tr *obs.Trace, distance string, zCut float64) (AnomaliesResponse, error) {
	if zCut <= 0 {
		zCut = 2.0
	}
	clients, stale := rt.readClients()
	results := scatter(rt, tr, "persistence", rt.allShards(), func(s int, tc obs.TraceContext) (server.PersistenceResponse, error) {
		return clients[s].Traced(tc).Persistence(distance)
	})
	resp := AnomaliesResponse{ShardsTotal: len(results), StaleShards: stale}
	// Reference window pair: the newest ToWindow any shard reports.
	ref := -1
	for _, r := range results {
		if r.err == nil && r.val.ToWindow > ref {
			ref = r.val.ToWindow
			resp.FromWindow, resp.ToWindow = r.val.FromWindow, r.val.ToWindow
		}
	}
	if ref == -1 {
		return resp, fmt.Errorf("cluster: anomalies failed on all %d shards", resp.ShardsTotal)
	}
	var pairs []apps.PersistencePair
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if r.val.FromWindow != resp.FromWindow || r.val.ToWindow != resp.ToWindow {
			rt.logf("sigrouter: shard %d reports window pair (%d,%d), want (%d,%d); treating as degraded",
				r.shard, r.val.FromWindow, r.val.ToWindow, resp.FromWindow, resp.ToWindow)
			continue
		}
		resp.ShardsOK++
		for _, p := range r.val.Pairs {
			pairs = append(pairs, apps.PersistencePair{Label: p.Label, Persistence: p.Persistence})
		}
	}
	if resp.ShardsOK < resp.ShardsTotal {
		rt.partials.Add(1)
	}
	anomalies, summary, err := apps.DetectAnomaliesByLabel(pairs, zCut)
	if err != nil {
		return resp, fmt.Errorf("cluster: %w", err)
	}
	resp.Mean, resp.StdDev = summary.Mean, summary.StdDev
	for _, a := range anomalies {
		resp.Anomalies = append(resp.Anomalies, server.AnomalyJSON{
			Label: a.Label, Persistence: a.Persistence, ZScore: a.ZScore,
		})
	}
	return resp, nil
}

// WatchlistHitsResponse is the routed GET /v1/watchlist/hits body.
type WatchlistHitsResponse struct {
	Hits        []server.WatchHitJSON `json:"hits"`
	ShardsOK    int                   `json:"shards_ok"`
	ShardsTotal int                   `json:"shards_total"`
	StaleShards []StaleShard          `json:"stale_shards,omitempty"`
}

// WatchlistHits merges every shard's hit log under a deterministic
// order (window, label, individual, archived window).
func (rt *Router) WatchlistHits() (WatchlistHitsResponse, error) {
	tr := rt.tracer.Start("route.watchlist.hits")
	defer tr.Finish()
	return rt.watchlistHits(tr)
}

func (rt *Router) watchlistHits(tr *obs.Trace) (WatchlistHitsResponse, error) {
	clients, stale := rt.readClients()
	results := scatter(rt, tr, "watchlist.hits", rt.allShards(), func(s int, tc obs.TraceContext) (server.WatchlistHitsResponse, error) {
		return clients[s].Traced(tc).WatchlistHits()
	})
	resp := WatchlistHitsResponse{ShardsTotal: len(results), Hits: []server.WatchHitJSON{}, StaleShards: stale}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		resp.ShardsOK++
		resp.Hits = append(resp.Hits, r.val.Hits...)
	}
	if resp.ShardsOK == 0 {
		return resp, fmt.Errorf("cluster: watchlist hits failed on all %d shards", resp.ShardsTotal)
	}
	if resp.ShardsOK < resp.ShardsTotal {
		rt.partials.Add(1)
	}
	sort.Slice(resp.Hits, func(i, j int) bool {
		a, b := resp.Hits[i], resp.Hits[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Individual != b.Individual {
			return a.Individual < b.Individual
		}
		return a.ArchivedWindow < b.ArchivedWindow
	})
	return resp, nil
}

// WatchlistAdd archives a label's signatures cluster-wide. Window-close
// screening is local to each shard — a shard only sees its own labels'
// new signatures — so every shard needs the full archive. The router
// reads the signatures from the label's owner (the one shard that
// stores them) and replays them onto every shard as explicit-signature
// adds; the union of per-shard hit logs then matches a single node's.
func (rt *Router) WatchlistAdd(req server.WatchlistAddRequest) (server.WatchlistAddResponse, error) {
	tr := rt.tracer.Start("route.watchlist.add")
	defer tr.Finish()
	return rt.watchlistAdd(tr, req)
}

func (rt *Router) watchlistAdd(tr *obs.Trace, req server.WatchlistAddRequest) (server.WatchlistAddResponse, error) {
	owner := rt.ring.Shard(req.Label)
	oc, _ := rt.readClient(owner)
	end, otc := tr.SpanWith(fmt.Sprintf("resolve.shard%d", owner))
	// Screening archives the label's whole history, so this owner read
	// is explicitly unbounded even when it reaches into cold segments.
	hist, err := oc.Traced(otc).HistoryRange(req.Label, server.HistoryQuery{Limit: -1})
	end()
	if err != nil {
		return server.WatchlistAddResponse{}, err
	}
	var entries []server.HistoryEntryJSON
	for _, e := range hist.History {
		if req.Window != nil && e.Window != *req.Window {
			continue
		}
		if len(e.Signature.Nodes) == 0 {
			continue
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return server.WatchlistAddResponse{}, fmt.Errorf("cluster: label %q has no archivable signature", req.Label)
	}
	results := scatter(rt, tr, "watchlist.add", rt.allShards(), func(s int, tc obs.TraceContext) (server.WatchlistAddResponse, error) {
		var last server.WatchlistAddResponse
		c := rt.writeClient(s).Traced(tc)
		for _, e := range entries {
			window := e.Window
			var err error
			last, err = c.WatchlistAdd(server.WatchlistAddRequest{
				Individual: req.Individual,
				Window:     &window,
				Signature:  &e.Signature,
			})
			if err != nil {
				return server.WatchlistAddResponse{}, err
			}
		}
		return last, nil
	})
	resp := server.WatchlistAddResponse{Archived: len(entries)}
	for _, r := range results {
		if r.err != nil {
			// A shard that missed the add would silently under-report
			// hits from then on; archiving is a write, so fail loudly
			// instead of degrading.
			return server.WatchlistAddResponse{}, fmt.Errorf("cluster: watchlist add: %w", r.err)
		}
		if r.val.Total > resp.Total {
			resp.Total = r.val.Total
		}
	}
	return resp, nil
}

// History fetches the label's archived signatures from its owner,
// failing over to the owner shard's follower when its primary is down.
// The zero query applies the owner's default limit; see
// server.HistoryQuery for bounded or unbounded fetches.
func (rt *Router) History(label string, q server.HistoryQuery) (server.HistoryResponse, error) {
	tr := rt.tracer.Start("route.history")
	defer tr.Finish()
	return rt.history(tr, label, q)
}

func (rt *Router) history(tr *obs.Trace, label string, q server.HistoryQuery) (server.HistoryResponse, error) {
	owner := rt.ring.Shard(label)
	c, _ := rt.readClient(owner)
	end, tc := tr.SpanWith(fmt.Sprintf("history.shard%d", owner))
	defer end()
	return c.Traced(tc).HistoryRange(label, q)
}
