package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// Shards holds each shard's primary: Shards[i] is exactly one base
	// URL, the node that takes shard i's writes (replicas go in
	// Followers). The ring size is len(Shards); its order is the shard
	// numbering, so it must be identical on every router. (Each entry is
	// a slice only because the end-to-end benchmark builds it as one.)
	Shards [][]string
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
	// slot entirely. May be nil or shorter than Shards, not longer.
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
	resolves      *obs.CounterVec // routed label slots, by what the signature cache held
	signatures    signatureCache
	closes        []atomic.Int64 // window closes each shard's ingest answers reported
	httpRequests  *obs.Counter
	httpErrors    *obs.Counter
	scrapeErrors  *obs.Counter // federation scrapes that failed
}

// NewRouter builds the router and its ring.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	if len(cfg.Followers) > len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: %d follower lists for %d shards", len(cfg.Followers), len(cfg.Shards))
	}
	ring, err := NewRing(len(cfg.Shards), 0)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring:     ring,
		timeout:  cfg.Timeout,
		logger:   cfg.Logger,
		start:    time.Now(),
		registry: obs.NewRegistry(),
		tracer:   obs.NewTracer(0, cfg.SlowOp, cfg.Logger),
		mux:      http.NewServeMux(),
		closes:   make([]atomic.Int64, len(cfg.Shards)),
	}
	if rt.timeout <= 0 {
		rt.timeout = DefaultScatterTimeout
	}
	newClient := func(base string) *server.Client {
		c := server.NewClient(base)
		c.HTTP = &http.Client{Timeout: rt.timeout}
		if cfg.MaxRetries != 0 {
			c.MaxRetries = cfg.MaxRetries
		}
		return c
	}
	for i, addrs := range cfg.Shards {
		if len(addrs) != 1 {
			return nil, fmt.Errorf("cluster: shard %d has %d addresses, want its one primary (replicas go in Followers)", i, len(addrs))
		}
		rt.clients = append(rt.clients, newClient(addrs[0]))
		var fcs []*server.Client
		if i < len(cfg.Followers) {
			for _, fb := range cfg.Followers[i] {
				fcs = append(fcs, newClient(fb))
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
	rt.resolves = rt.registry.CounterVec("search_label_resolves_total",
		"routed label searches by what the router's signature cache held for the owner to check: hit, miss or stale", "outcome")
	rt.httpRequests = rt.registry.Counter("http_requests_total", "HTTP requests routed")
	rt.httpErrors = rt.registry.Counter("http_errors_total", "HTTP responses with status >= 400")
	rt.scrapeErrors = rt.registry.Counter("federate_scrape_errors", "node scrapes that failed during metrics federation")
	rt.registry.GaugeFunc("uptime_seconds", "seconds since router start",
		func() int64 { return int64(time.Since(rt.start).Seconds()) })
	if cfg.Health != nil {
		primaries := make([]string, len(cfg.Shards))
		for i, addrs := range cfg.Shards {
			primaries[i] = addrs[0]
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

// readClient picks the client answering reads for one shard: the
// primary while it is not Down, a promoted follower from the moment the
// prober observes one, otherwise the freshest serving follower — with
// the staleness it implies — and, with nothing better, the primary
// anyway so the caller gets a real error instead of a silent gap.
func (rt *Router) readClient(s int) (*server.Client, *server.StaleShard) {
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
			&server.StaleShard{Shard: s, Gen: t.gen, Offset: t.off, BehindSeconds: t.behindSec}
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
func (rt *Router) readClients() ([]*server.Client, []server.StaleShard) {
	clients := make([]*server.Client, rt.ring.Shards())
	var stale []server.StaleShard
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
	*server.Coverage
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
// re-applies only the partitions that did not land. ctx carries the
// trace (server.TraceFrom).
func (rt *Router) Ingest(ctx context.Context, batchID string, records []netflow.Record) (IngestResponse, error) {
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

	resp := IngestResponse{Coverage: &server.Coverage{ShardsTotal: len(shards)}}
	resp.Received = len(records)
	results := scatter(rt, server.TraceFrom(ctx), "ingest", shards, func(s int, tc obs.TraceContext) (server.IngestResult, error) {
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
			rt.closes[s].Add(int64(res.WindowsClosed))
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

// gateway is a failed shard call as the router answers it: a shard's
// refusal (4xx) passes on in the shard's words, and any other failure —
// a shard unreachable, late or failing — is the router's own, 502.
func gateway(err error) error {
	var ae *server.APIError
	if errors.As(err, &ae) && ae.Status < http.StatusInternalServerError {
		return server.WithStatus(ae.Status, errors.New(ae.Msg))
	}
	return server.WithStatus(http.StatusBadGateway, err)
}

// gather is the coverage block of a scatter's results. It fails the
// call when no shard answered: with the shards' refusal when every
// shard refused it alike (a 4xx of one status), else with a 502.
func gather[T any](rt *Router, op string, results []shardResult[T], stale []server.StaleShard) (*server.Coverage, error) {
	cov := &server.Coverage{ShardsTotal: len(results), StaleShards: stale}
	refusal := server.APIStatus(results[0].err)
	for _, r := range results {
		if r.err == nil {
			cov.ShardsOK++
		}
		if server.APIStatus(r.err) != refusal {
			refusal = 0
		}
	}
	switch {
	case cov.ShardsOK == 0 && refusal >= 400 && refusal < 500:
		return cov, gateway(results[0].err)
	case cov.ShardsOK == 0:
		return cov, server.WithStatus(http.StatusBadGateway, fmt.Errorf("cluster: %s failed on all %d shards", op, cov.ShardsTotal))
	case cov.ShardsOK < cov.ShardsTotal:
		rt.partials.Add(1)
	}
	return cov, nil
}

// shardDebug assembles the per-shard explain blocks of one scatter.
func shardDebug[T any](results []shardResult[T], dbg func(T) *server.SearchDebugJSON) *server.SearchDebugJSON {
	out := make([]server.ShardDebugJSON, 0, len(results))
	for _, r := range results {
		d := server.ShardDebugJSON{Shard: r.shard, Micros: r.micros}
		if r.err != nil {
			d.Error = r.err.Error()
		} else if sd := dbg(r.val); sd != nil {
			d.Probes = sd.Probes
		}
		out = append(out, d)
	}
	return &server.SearchDebugJSON{Shards: out}
}

// Search answers one query as the one slot of a routed batch
// (server.SearchOne, SearchBatch), as a node's Search does.
func (rt *Router) Search(ctx context.Context, req server.SearchRequest) (server.SearchResponse, error) {
	return server.SearchOne(ctx, rt.SearchBatch, req)
}

// sortSearchHits orders merged shard hits under the store's exact
// comparator (dist asc, window desc, label asc), so the routed top-k
// cut reproduces a single node's.
func sortSearchHits(hits []server.SearchHitJSON) {
	slices.SortFunc(hits, func(a, b server.SearchHitJSON) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Window, a.Window); c != 0 {
			return c
		}
		return strings.Compare(a.Label, b.Label)
	})
}

// routedSlot is one slot of a routed batch on its way through the
// shards.
type routedSlot struct {
	q      server.SearchRequest // as asked, k set
	owner  int                  // a label slot's owner shard, else -1
	closes int64                // the owner's window closes when the slot was sent
	latest *server.HistoryEntryJSON
	// guessed: the other shards search latest in the first scatter, as
	// the owner has closed no window since it was cached. stale: the
	// owner resolved the label anew; their first answers are dropped.
	guessed, stale bool
	hits           []server.SearchHitJSON
	refusal        string // a shard's error for the slot
	err            error  // the slot's own failure
}

// query is the slot as shard s searches it: as asked, or for a label
// slot as a node's label query at its owner, checking latest's window,
// and as latest's signature, the label excluded, at the other shards.
func (sl *routedSlot) query(s int) server.SearchRequest {
	q, asOf := sl.q, -1
	switch {
	case sl.owner < 0:
	case s == sl.owner && sl.latest != nil:
		asOf = sl.latest.Window
		fallthrough
	case s == sl.owner:
		q.AsOf = &asOf
	default:
		q.Signature, q.Label, q.AsOf = &sl.latest.Signature, "", nil
		q.ExcludeLabel = cmp.Or(q.ExcludeLabel, sl.q.Label)
	}
	return q
}

// searchShards scatters, as op, to each shard s the slots sends[s] —
// none to a shard with none — and returns the answers by shard. calls
// is the batch's account of every shard over its scatters: wall time
// and probes summed, the first failure, the distance answered.
func (rt *Router) searchShards(tr *obs.Trace, op string, req server.BatchSearchRequest, clients []*server.Client,
	slots []routedSlot, sends [][]int, calls []shardResult[server.BatchSearchResponse]) []shardResult[server.BatchSearchResponse] {
	batches := make([]server.BatchSearchRequest, len(sends))
	var shards []int
	for s, send := range sends {
		if len(send) > 0 {
			shards = append(shards, s)
		}
		batches[s] = server.BatchSearchRequest{Distance: req.Distance, Debug: req.Debug}
		for _, i := range send {
			batches[s].Queries = append(batches[s].Queries, slots[i].query(s))
		}
	}
	out := make([]shardResult[server.BatchSearchResponse], len(sends))
	for _, r := range scatter(rt, tr, op, shards, func(s int, tc obs.TraceContext) (server.BatchSearchResponse, error) {
		resp, err := clients[s].Traced(tc).SearchBatch(batches[s])
		if err == nil && len(resp.Results) != len(sends[s]) {
			err = fmt.Errorf("cluster: shard %d answered %d slots of %d", s, len(resp.Results), len(sends[s]))
		}
		return resp, err
	}) {
		out[r.shard] = r
		c := &calls[r.shard]
		c.micros += r.micros
		switch {
		case r.err != nil:
			c.err = cmp.Or(c.err, r.err)
		case r.val.Debug != nil:
			c.val.Debug.Probes += r.val.Debug.Probes
			fallthrough
		default:
			c.val.Distance = r.val.Distance
		}
	}
	return out
}

// fold takes a scatter's answers into their slots: hits, or the error a
// shard refused a slot with. A failed slot takes none, and a stale one,
// of the first scatter, only its owner's.
func fold(slots []routedSlot, sends [][]int, answers []shardResult[server.BatchSearchResponse], first bool) {
	for s, r := range answers {
		for k, i := range sends[s] {
			sl := &slots[i]
			switch {
			case r.err != nil || sl.err != nil || first && sl.stale && s != sl.owner:
			case r.val.Results[k].Error != "":
				sl.refusal = r.val.Results[k].Error
			default:
				sl.hits = append(sl.hits, r.val.Results[k].Hits...)
			}
		}
	}
}

// resolve reads the answer r of a label slot's owner to the slot, its
// k-th query, and reports whether the other shards must search again:
// when the owner resolved the label anew, which the cache then takes —
// but for a label with no signature, which fails the slot with the
// owner's 404.
func (rt *Router) resolve(sl *routedSlot, r shardResult[server.BatchSearchResponse], k int) bool {
	if r.err != nil {
		sl.err = gateway(fmt.Errorf("cluster: resolving label %q at shard %d: %w", sl.q.Label, sl.owner, r.err))
		return false
	}
	res, outcome := r.val.Results[k], "hit"
	switch {
	case res.Resolved == nil && (res.Error != "" || sl.latest == nil):
		sl.latest = nil // refused before it was resolved
		return false
	case res.Resolved != nil && sl.latest == nil:
		outcome = "miss"
	case res.Resolved != nil:
		outcome = "stale"
	}
	rt.resolves.With(outcome).Add(1)
	if res.Resolved != nil {
		sl.latest, sl.stale = res.Resolved, true
	}
	if sl.stale || !sl.guessed {
		rt.signatures.put(sl.q.Label, *sl.latest, sl.closes)
	}
	if sl.latest.Window < 0 {
		sl.err = server.WithStatus(http.StatusNotFound, errors.New(res.Error))
		return false
	}
	return sl.stale || !sl.guessed
}

// signatureCacheBytes bounds the router's signature cache by what its
// entries hold: some 8 000 signatures of 100 members.
const signatureCacheBytes = 8 << 20

// signatureCache holds each label's latest archived signature as its
// owner shard last answered it (SearchBatch). It is dropped whole when
// an entry would take it past signatureCacheBytes.
type signatureCache struct {
	mu      sync.Mutex
	entries map[string]cachedSignature
	bytes   int
}

// cachedSignature is a label's latest signature, as of the owner's
// closes-th window close the router saw.
type cachedSignature struct {
	server.HistoryEntryJSON
	closes int64
	bytes  int
}

func (c *signatureCache) get(label string) (cachedSignature, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[label]
	return e, ok
}

// put records e as label's latest signature or, of window -1, forgets
// the label. An entry counts its strings and a few words a header.
func (c *signatureCache) put(label string, e server.HistoryEntryJSON, closes int64) {
	n := 96 + len(label) + len(e.Scheme)
	for _, node := range e.Signature.Nodes {
		n += 24 + len(node)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes -= c.entries[label].bytes
	delete(c.entries, label)
	if e.Window >= 0 && n <= signatureCacheBytes {
		if c.entries == nil || c.bytes+n > signatureCacheBytes {
			c.entries, c.bytes = map[string]cachedSignature{}, 0
		}
		c.entries[label], c.bytes = cachedSignature{e, closes, n}, c.bytes+n
	}
}

// SearchBatch answers a query batch from the shards, each slot as a
// node holding the union answers it: the global top-k of a union is a
// subset of the per-shard top-ks, so a slot's merge under the store's
// exact comparator, cut to its k, is a single node's answer (up to
// summation-order ulps for the float kernels; DESIGN.md §12).
//
// A label slot's owner searches it as a node's label query, asked as of
// the window of the label's cached signature (-1 for none), in the
// scatter in which the other shards search that signature — unless the
// router has seen the owner close a window since it was cached; they
// then search it in a second scatter, once the owner has checked it. An
// owner whose latest window is another answers the label's resolution:
// the cache takes it, and the other shards, their first answers
// dropped, search it in a second scatter. An archived signature never
// changes, so this answers what resolving first did. A label with no
// signature fails its slot with the owner's 404, one whose owner failed
// with the router's 502, and one every shard refuses with their words as
// a 400; slot failures fail neither the batch nor the fan-out.
func (rt *Router) SearchBatch(ctx context.Context, req server.BatchSearchRequest) (server.BatchSearchResponse, error) {
	tr := server.TraceFrom(ctx)
	clients, stale := rt.readClients()
	calls := make([]shardResult[server.BatchSearchResponse], rt.ring.Shards())
	first, second := make([][]int, len(calls)), make([][]int, len(calls))
	slots := make([]routedSlot, len(req.Queries))
	for i, q := range req.Queries {
		sl := &slots[i]
		sl.q, sl.owner, sl.hits = q, -1, []server.SearchHitJSON{}
		if q.K <= 0 {
			sl.q.K = store.DefaultTopK
		}
		if q.Label != "" && q.Signature == nil {
			sl.owner = rt.ring.Shard(q.Label)
			sl.closes = rt.closes[sl.owner].Load()
			if e, ok := rt.signatures.get(q.Label); ok {
				sl.latest, sl.guessed = &e.HistoryEntryJSON, e.closes == sl.closes
			}
		}
		for s := range first {
			if sl.owner < 0 || s == sl.owner || sl.guessed {
				first[s] = append(first[s], i)
			}
		}
	}
	for s := range calls {
		calls[s].shard, calls[s].val.Debug = s, &server.SearchDebugJSON{}
	}
	answers := rt.searchShards(tr, "search.batch", req, clients, slots, first, calls)
	for s, r := range answers {
		for k, i := range first[s] {
			if s == slots[i].owner && rt.resolve(&slots[i], r, k) {
				for o := range second {
					if o != s {
						second[o] = append(second[o], i)
					}
				}
			}
		}
	}
	fold(slots, first, answers, true)
	fold(slots, second, rt.searchShards(tr, "search.resolved", req, clients, slots, second, calls), false)

	cov, err := gather(rt, "batch search", calls, stale)
	if err != nil {
		return server.BatchSearchResponse{}, err
	}
	resp := server.BatchSearchResponse{Results: make([]server.BatchSearchResult, len(slots)), Coverage: cov}
	for _, c := range calls {
		resp.Distance = cmp.Or(c.val.Distance, resp.Distance)
	}
	if req.Debug {
		cov.TraceID = tr.ID()
		resp.Debug = shardDebug(calls, func(v server.BatchSearchResponse) *server.SearchDebugJSON { return v.Debug })
	}
	for i := range slots {
		sl, out := &slots[i], &resp.Results[i]
		switch {
		case sl.err != nil:
			*out = server.FailedSlot(sl.err)
		case sl.refusal != "" && len(sl.hits) == 0:
			*out = server.FailedSlot(server.WithStatus(http.StatusBadRequest, errors.New(sl.refusal)))
		default:
			sortSearchHits(sl.hits)
			out.Hits = sl.hits[:min(len(sl.hits), sl.q.K)]
		}
		if sl.owner >= 0 && sl.latest != nil && server.Resolves(req.Queries[i].AsOf, sl.latest.Window) {
			out.Resolved = sl.latest
		}
	}
	return resp, nil
}

// Anomalies fetches every shard's label-keyed persistence pairs,
// merges them (shards hold disjoint label sets), and runs the same
// label-ordered detection a single node runs — so the population
// mean/stddev and the flagged set are bit-identical to a single node
// holding the union. Shards reporting a different window pair than the
// newest one seen (a lagging shard mid-window-close) are counted as
// degraded rather than polluting the population.
func (rt *Router) Anomalies(ctx context.Context, req server.AnomaliesRequest) (server.AnomaliesResponse, error) {
	clients, stale := rt.readClients()
	results := scatter(rt, server.TraceFrom(ctx), "persistence", rt.allShards(), func(s int, tc obs.TraceContext) (server.PersistenceResponse, error) {
		return clients[s].Traced(tc).Persistence(req.Distance)
	})
	cov, err := gather(rt, "anomalies", results, stale)
	if err != nil {
		return server.AnomaliesResponse{}, err
	}
	// Reference window pair: the newest ToWindow any shard reports.
	var ref server.PersistenceResponse
	ref.ToWindow = -1
	for _, r := range results {
		if r.err == nil && r.val.ToWindow > ref.ToWindow {
			ref = r.val
		}
	}
	degraded := cov.ShardsOK < cov.ShardsTotal
	var pairs []apps.PersistencePair
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if r.val.FromWindow != ref.FromWindow || r.val.ToWindow != ref.ToWindow {
			rt.logf("sigrouter: shard %d reports window pair (%d,%d), want (%d,%d); treating as degraded",
				r.shard, r.val.FromWindow, r.val.ToWindow, ref.FromWindow, ref.ToWindow)
			cov.ShardsOK--
			continue
		}
		for _, p := range r.val.Pairs {
			pairs = append(pairs, apps.PersistencePair{Label: p.Label, Persistence: p.Persistence})
		}
	}
	if !degraded && cov.ShardsOK < cov.ShardsTotal {
		rt.partials.Add(1)
	}
	resp, err := server.AnomaliesOf(ref.FromWindow, ref.ToWindow, pairs, req.Z)
	resp.Coverage = cov
	return resp, err
}

// WatchlistHits merges every shard's hit log in server.SortWatchHits
// order.
func (rt *Router) WatchlistHits(ctx context.Context) (server.WatchlistHitsResponse, error) {
	clients, stale := rt.readClients()
	results := scatter(rt, server.TraceFrom(ctx), "watchlist.hits", rt.allShards(), func(s int, tc obs.TraceContext) (server.WatchlistHitsResponse, error) {
		return clients[s].Traced(tc).WatchlistHits()
	})
	cov, err := gather(rt, "watchlist hits", results, stale)
	if err != nil {
		return server.WatchlistHitsResponse{}, err
	}
	resp := server.WatchlistHitsResponse{Hits: []server.WatchHitJSON{}, Coverage: cov}
	for _, r := range results {
		if r.err == nil {
			resp.Hits = append(resp.Hits, r.val.Hits...)
		}
	}
	server.SortWatchHits(resp.Hits)
	return resp, nil
}

// WatchlistAdd archives signatures cluster-wide. Window-close screening
// is local to each shard — a shard only sees its own labels' new
// signatures — so every shard needs the full archive. The router sends
// every shard each entry as an explicit-signature add: the carried
// signature, or the label's signatures read from its owner (the one
// shard that stores them). The union of per-shard hit logs then matches
// a single node's.
func (rt *Router) WatchlistAdd(ctx context.Context, req server.WatchlistAddRequest) (server.WatchlistAddResponse, error) {
	tr := server.TraceFrom(ctx)
	entries := []server.HistoryEntryJSON{}
	if req.Signature != nil {
		entries = append(entries, server.HistoryEntryJSON{Window: *req.Window, Signature: *req.Signature})
	} else {
		owner := rt.ring.Shard(req.Label)
		oc, _ := rt.readClient(owner)
		end, otc := tr.SpanWith(fmt.Sprintf("resolve.shard%d", owner))
		// Screening archives the label's whole history, so this owner read
		// is explicitly unbounded even when it reaches into cold segments.
		hist, err := oc.Traced(otc).HistoryRange(req.Label, server.HistoryQuery{Limit: -1})
		end()
		if err != nil && server.APIStatus(err) != http.StatusNotFound {
			return server.WatchlistAddResponse{}, gateway(err)
		}
		for _, e := range hist.History {
			if (req.Window == nil || e.Window == *req.Window) && len(e.Signature.Nodes) > 0 {
				entries = append(entries, e)
			}
		}
		if len(entries) == 0 {
			return server.WatchlistAddResponse{}, server.WithStatus(http.StatusNotFound, fmt.Errorf("label %q has no archivable signature", req.Label))
		}
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
			return server.WatchlistAddResponse{}, gateway(r.err)
		}
		resp.Total = max(resp.Total, r.val.Total)
	}
	return resp, nil
}

// History fetches the label's archived signatures from its owner,
// failing over to the owner shard's follower when its primary is down.
func (rt *Router) History(ctx context.Context, req server.HistoryRequest) (server.HistoryResponse, error) {
	owner := rt.ring.Shard(req.Label)
	c, _ := rt.readClient(owner)
	end, tc := server.TraceFrom(ctx).SpanWith(fmt.Sprintf("history.shard%d", owner))
	defer end()
	resp, err := c.Traced(tc).HistoryRange(req.Label, req.Query)
	if err != nil {
		return server.HistoryResponse{}, gateway(err)
	}
	return resp, nil
}
