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
// (server.SearchOne, SearchBatch). A label query first resolves the
// label's latest archived signature at its owner shard, on the request
// goroutine — one owner needs no scatter — and goes out as that
// signature with the label excluded, exactly what SearchLabel does on a
// single node. A label with no archived signature is a 404, an owner
// that cannot answer a 502.
func (rt *Router) Search(ctx context.Context, req server.SearchRequest) (server.SearchResponse, error) {
	if req.Label != "" {
		owner := rt.ring.Shard(req.Label)
		oc, _ := rt.readClient(owner)
		end, tc := server.TraceFrom(ctx).SpanWith(fmt.Sprintf("resolve.shard%d", owner))
		sig, err := latestSignature(oc.Traced(tc), owner, req.Label)
		end()
		if err != nil {
			return server.SearchResponse{}, err
		}
		req = withSignature(req, sig)
	}
	return server.SearchOne(ctx, rt.SearchBatch, req)
}

// withSignature is label query req asked with sig, the label's latest
// archived signature, instead.
func withSignature(req server.SearchRequest, sig *server.SignatureJSON) server.SearchRequest {
	req.Signature = sig
	if req.ExcludeLabel == "" {
		req.ExcludeLabel = req.Label
	}
	req.Label = ""
	return req
}

// latestSignature is label's latest non-empty archived signature as its
// owner shard, client c, holds it; a 404 when it holds none.
func latestSignature(c *server.Client, owner int, label string) (*server.SignatureJSON, error) {
	none := server.WithStatus(http.StatusNotFound, fmt.Errorf("label %q has no archived signature", label))
	// Newest first, one entry to begin with: the newest archived
	// signature is almost always non-empty, and asking for just it keeps
	// the owner from parsing a cold block per window the label ever
	// appeared in. When it is empty the page widens and moves back.
	q := server.HistoryQuery{Limit: 1}
	for {
		hist, err := c.HistoryRange(label, q)
		if server.APIStatus(err) == http.StatusNotFound {
			return nil, none
		}
		if err != nil {
			return nil, gateway(fmt.Errorf("cluster: resolving label %q at shard %d: %w", label, owner, err))
		}
		for i := len(hist.History) - 1; i >= 0; i-- {
			if len(hist.History[i].Signature.Nodes) > 0 {
				return &hist.History[i].Signature, nil
			}
		}
		if !hist.Truncated || len(hist.History) == 0 {
			return nil, none
		}
		q = server.HistoryQuery{To: hist.History[0].Window - 1, HasTo: true, Limit: 4 * q.Limit}
	}
}

// resolved is one label's latest archived signature, or why there is
// none.
type resolved struct {
	sig *server.SignatureJSON
	err error
}

// resolveLabels resolves every distinct label of a batch's label slots
// once, in one scatter over their owner shards — at most one call in
// flight per shard, under the scatter deadline; each owner resolves its
// labels one after another.
func (rt *Router) resolveLabels(tr *obs.Trace, queries []server.SearchRequest) map[string]resolved {
	out := map[string]resolved{}
	byOwner := map[int][]string{}
	clients := map[int]*server.Client{}
	for _, q := range queries {
		if _, seen := out[q.Label]; q.Label == "" || q.Signature != nil || seen {
			continue
		}
		out[q.Label] = resolved{}
		owner := rt.ring.Shard(q.Label)
		if byOwner[owner] == nil {
			clients[owner], _ = rt.readClient(owner)
		}
		byOwner[owner] = append(byOwner[owner], q.Label)
	}
	owners := make([]int, 0, len(byOwner))
	for s := range byOwner {
		owners = append(owners, s)
	}
	sort.Ints(owners)
	answers := scatter(rt, tr, "resolve", owners, func(s int, tc obs.TraceContext) ([]resolved, error) {
		res := make([]resolved, len(byOwner[s]))
		for i, label := range byOwner[s] {
			res[i].sig, res[i].err = latestSignature(clients[s].Traced(tc), s, label)
		}
		return res, nil
	})
	for _, a := range answers {
		for i, label := range byOwner[a.shard] {
			if a.err != nil {
				out[label] = resolved{err: gateway(a.err)}
			} else {
				out[label] = a.val[i]
			}
		}
	}
	return out
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

// SearchBatch fans a whole query batch out to every shard in ONE
// scatter — each shard answers all slots against a single ring
// snapshot with one pooled kernel scratch — then merges every slot's
// per-shard top-k lists under the store's exact comparator (dist asc,
// window desc, label asc), truncating to the slot's k. Each shard
// returns its own top-k, and the global top-k of a union is a subset of
// the per-shard top-ks, so the merged list is bit-identical to a single
// node searching the union — with the cardinality-exact distances
// (jaccard and friends) unconditionally, and for order-sensitive float
// kernels up to ulp differences from summation order (see DESIGN.md
// §12).
//
// Label slots resolve at their owner shard first, each distinct label
// once (resolveLabels). A slot the router cannot resolve for want of a
// signature goes out as it came, so every shard refuses it in the words
// a node would; one it cannot resolve for a failed or late owner carries
// the router's error. A slot every shard refuses fails with their words
// as a 400. Slot failures fail neither the batch nor the fan-out.
func (rt *Router) SearchBatch(ctx context.Context, req server.BatchSearchRequest) (server.BatchSearchResponse, error) {
	tr := server.TraceFrom(ctx)
	labels := rt.resolveLabels(tr, req.Queries)
	results := make([]server.BatchSearchResult, len(req.Queries))
	ks := make([]int, len(req.Queries))
	fan := server.BatchSearchRequest{Distance: req.Distance, Debug: req.Debug}
	slots := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		if q.K <= 0 {
			q.K = store.DefaultTopK
		}
		ks[i] = q.K
		if r, ok := labels[q.Label]; ok && q.Signature == nil {
			switch {
			case r.err == nil:
				q = withSignature(q, r.sig)
			case server.Status(r.err) != http.StatusNotFound:
				results[i] = server.FailedSlot(r.err)
				continue
			}
		}
		fan.Queries = append(fan.Queries, q)
		slots = append(slots, i)
	}

	clients, stale := rt.readClients()
	if len(fan.Queries) == 0 {
		// Every slot's owner failed; nothing to scatter.
		cov := &server.Coverage{ShardsOK: rt.ring.Shards(), ShardsTotal: rt.ring.Shards(), StaleShards: stale}
		return server.BatchSearchResponse{Distance: req.Distance, Results: results, Coverage: cov}, nil
	}
	answers := scatter(rt, tr, "search.batch", rt.allShards(), func(s int, tc obs.TraceContext) (server.BatchSearchResponse, error) {
		return clients[s].Traced(tc).SearchBatch(fan)
	})
	cov, err := gather(rt, "batch search", answers, stale)
	if err != nil {
		return server.BatchSearchResponse{}, err
	}
	resp := server.BatchSearchResponse{Results: results, Coverage: cov}
	if req.Debug {
		cov.TraceID = tr.ID()
		resp.Debug = shardDebug(answers, func(v server.BatchSearchResponse) *server.SearchDebugJSON { return v.Debug })
	}
	for _, r := range answers {
		if r.err == nil {
			resp.Distance = r.val.Distance
		}
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
			results[slot] = server.FailedSlot(server.WithStatus(http.StatusBadRequest, errors.New(slotErr)))
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
