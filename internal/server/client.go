package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/obs"
)

// Client is a thin Go client for the sigserverd HTTP API, used by the
// sigtool `client` subcommand, by --replay self-benchmarking, and by
// the end-to-end tests.
//
// Transient failures — connection errors, 429 throttling, 5xx — are
// retried with jittered exponential backoff. Ingest batches carry a
// generated batch ID (stable across the retries of one call), so a
// retry after a timed-out-but-actually-applied POST is deduplicated
// server-side instead of double-counting flows.
type Client struct {
	// Base is the primary server root, e.g. "http://127.0.0.1:8080".
	// With fallback seeds configured (NewClient's variadic arguments),
	// Base is only the first seed tried; requests go to the current
	// seed, and every retried failure rotates to the next one.
	Base string
	// HTTP is the underlying client (default: 30 s timeout).
	HTTP *http.Client
	// MaxRetries bounds retry attempts beyond the first try (default
	// 3; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubled
	// each attempt with ±50% jitter (default 100 ms). A server-sent
	// Retry-After overrides the computed delay. Every delay — computed
	// or server-sent — is clamped to [RetryBackoff/2, MaxRetryDelay],
	// so a long retry budget cannot overflow the shift into a negative
	// duration and a Retry-After of 0 (or something absurd) cannot
	// produce a hot loop or an hours-long stall.
	RetryBackoff time.Duration
	// SeedCooldown is how long a seed that failed at the transport level
	// (connection refused, reset, timeout) is skipped by the failover
	// rotation before being tried again (0 = DefaultSeedCooldown;
	// negative disables the cooldown, restoring plain round-robin).
	// HTTP-status failures do not trigger it: a node answering 429 or
	// 503 is alive and shedding load, not dead.
	SeedCooldown time.Duration

	jitterMu sync.Mutex
	jitter   *mrand.Rand // lazily seeded; avoids the deprecated global source

	// seedMu guards the failover rotation state. seeds holds every
	// configured address (Base first); cur indexes the one currently in
	// use. deadUntil (parallel to seeds, nil until first transport
	// failure) holds each seed's cooldown expiry. Empty seeds (a Client
	// built by struct literal) fall back to Base alone.
	seedMu    sync.Mutex
	seeds     []string
	cur       int
	deadUntil []time.Time
	now       func() time.Time // test hook; nil means time.Now

	// trace, when valid, is stamped onto every request as the
	// X-Sig-Trace header. Set via Traced.
	trace obs.TraceContext
	// parent is non-nil on Traced views: all mutable failover state —
	// seed rotation, cooldowns, the jitter RNG — lives on the root
	// client, so a view's retries share the root's view of which seeds
	// are dead.
	parent *Client
}

// root resolves the client owning the shared failover state.
func (c *Client) root() *Client {
	if c.parent != nil {
		return c.parent
	}
	return c
}

// Traced returns a view of the client that stamps tc onto every
// request as the X-Sig-Trace header, so the far side's tracer records
// its work as a child segment of tc's span instead of minting a fresh
// trace ID. The view shares the root client's failover state and is
// cheap enough to mint per call. An invalid context returns the
// receiver unchanged.
func (c *Client) Traced(tc obs.TraceContext) *Client {
	if !tc.Valid() {
		return c
	}
	return &Client{
		Base:         c.Base,
		HTTP:         c.HTTP,
		MaxRetries:   c.MaxRetries,
		RetryBackoff: c.RetryBackoff,
		SeedCooldown: c.SeedCooldown,
		trace:        tc,
		parent:       c.root(),
	}
}

// APIError is a server-reported failure (any HTTP status >= 400),
// exposing the status code so callers can distinguish "not found" from
// "conflict" from "gone" without string matching.
type APIError struct {
	Status int
	Method string
	Path   string
	Msg    string
	// RetryAfter is the response's Retry-After header ("" when absent),
	// kept so a caller running its own retry loop above the client (the
	// cluster router's routed ingest) can honor the server's pacing via
	// Client.Backoff instead of inventing its own.
	RetryAfter string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s %s: %s", e.Method, e.Path, e.Msg)
}

// APIStatus extracts the HTTP status from an *APIError chain (0 when
// err carries none — e.g. a transport failure).
func APIStatus(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// MaxRetryDelay caps every retry delay, whether computed by backoff or
// dictated by a server's Retry-After header.
const MaxRetryDelay = 30 * time.Second

// DefaultSeedCooldown is how long a transport-dead seed is skipped by
// the failover rotation when Client.SeedCooldown is zero.
const DefaultSeedCooldown = 5 * time.Second

// RetryAfter extracts the Retry-After header value from an *APIError
// chain ("" when err carries none).
func RetryAfter(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return ""
}

// NewClient returns a client for the server at base. Additional
// fallback seed addresses may follow: every retried failure (transport
// error, 429, 5xx) rotates to the next seed before the retry, so a
// caller given several addresses for one logical service keeps working
// through single-node outages.
func NewClient(base string, fallbacks ...string) *Client {
	c := &Client{
		Base:         base,
		HTTP:         &http.Client{Timeout: 30 * time.Second},
		MaxRetries:   3,
		RetryBackoff: 100 * time.Millisecond,
	}
	if len(fallbacks) > 0 {
		c.seeds = append([]string{base}, fallbacks...)
	}
	return c
}

// Seeds reports every configured address, current first.
func (c *Client) Seeds() []string {
	c = c.root()
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	if len(c.seeds) == 0 {
		return []string{c.Base}
	}
	out := make([]string, 0, len(c.seeds))
	for i := range c.seeds {
		out = append(out, c.seeds[(c.cur+i)%len(c.seeds)])
	}
	return out
}

// currentBase returns the seed requests currently target.
func (c *Client) currentBase() string {
	c = c.root()
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	if len(c.seeds) == 0 {
		return c.Base
	}
	return c.seeds[c.cur]
}

// rotateSeed advances to the next seed after a retryable failure,
// preferring seeds not in transport-failure cooldown.
func (c *Client) rotateSeed() {
	c = c.root()
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	c.advanceSeedLocked()
}

// markSeedDown records a transport-level failure of the current seed —
// it enters cooldown and the rotation skips it — then advances. A seed
// that merely answered an error status is never marked: it is alive,
// and re-probing a live node is cheap, whereas re-dialing a dead one
// burns a connect timeout per request.
func (c *Client) markSeedDown() {
	c = c.root()
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	if len(c.seeds) == 0 || c.seedCooldown() <= 0 {
		c.advanceSeedLocked()
		return
	}
	if c.deadUntil == nil {
		c.deadUntil = make([]time.Time, len(c.seeds))
	}
	c.deadUntil[c.cur] = c.timeNow().Add(c.seedCooldown())
	c.advanceSeedLocked()
}

// advanceSeedLocked moves cur to the next seed outside cooldown,
// falling back to plain round-robin when every seed is cooling down.
// Callers hold seedMu.
func (c *Client) advanceSeedLocked() {
	if len(c.seeds) <= 1 {
		return
	}
	for i := 1; i <= len(c.seeds); i++ {
		n := (c.cur + i) % len(c.seeds)
		if !c.seedDeadLocked(n) {
			c.cur = n
			return
		}
	}
	c.cur = (c.cur + 1) % len(c.seeds)
}

// seedDeadLocked reports whether seed i is still in cooldown.
func (c *Client) seedDeadLocked(i int) bool {
	return c.deadUntil != nil && c.timeNow().Before(c.deadUntil[i])
}

func (c *Client) seedCooldown() time.Duration {
	if c.SeedCooldown == 0 {
		return DefaultSeedCooldown
	}
	return c.SeedCooldown
}

func (c *Client) timeNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// retryable reports whether a response status is worth retrying.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// backoff computes the jittered delay before retry attempt (0-based),
// honoring a server-provided Retry-After in seconds when given. The
// result is always within [base/2, MaxRetryDelay]: the floor stops a
// "Retry-After: 0" from turning retries into a hot loop hammering an
// already overloaded server, the ceiling keeps both absurd Retry-After
// values and the exponential's eventual int64 overflow (base<<attempt
// goes negative around attempt 33 with the 100 ms base, which used to
// panic mrand.Int63n) from stalling or crashing the caller.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if base > MaxRetryDelay {
		base = MaxRetryDelay
	}
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
		return clampDelay(time.Duration(secs)*time.Second, base)
	}
	// Exponential growth, saturating instead of overflowing: once the
	// shift would exceed the ceiling (or wrap negative) the delay pins
	// at MaxRetryDelay.
	d := MaxRetryDelay
	if attempt < 63 {
		if v := base << uint(attempt); v > 0 && v < MaxRetryDelay {
			d = v
		}
	}
	// ±50% jitter decorrelates a fleet of retrying senders.
	return clampDelay(d/2+c.jitterDuration(d), base)
}

// Backoff exposes the client's jittered, saturating retry delay for
// callers that loop above the client's own retries: attempt is 0-based,
// retryAfter the server's Retry-After header value ("" computes the
// exponential delay instead).
func (c *Client) Backoff(attempt int, retryAfter string) time.Duration {
	return c.backoff(attempt, retryAfter)
}

// clampDelay bounds a retry delay to [base/2, MaxRetryDelay].
func clampDelay(d, base time.Duration) time.Duration {
	if min := base / 2; d < min {
		return min
	}
	if d > MaxRetryDelay {
		return MaxRetryDelay
	}
	return d
}

// jitterDuration draws a uniform duration in [0, d) from the client's
// private RNG, seeding it on first use.
func (c *Client) jitterDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c = c.root()
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	if c.jitter == nil {
		c.jitter = mrand.New(mrand.NewSource(time.Now().UnixNano()))
	}
	return time.Duration(c.jitter.Int63n(int64(d)))
}

// doJSON is do with body, when non-nil, marshalled as the JSON payload.
func (c *Client) doJSON(method, path string, body any, decode func(io.Reader) error) error {
	if body == nil {
		return c.do(method, path, nil, decode)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.do(method, path, payload, decode)
}

// do runs one API call through the retry and seed-rotation loop:
// payload, when non-nil, is sent as the JSON body, and decode reads a
// successful response's body.
func (c *Client) do(method, path string, payload []byte, decode func(io.Reader) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryAfter, err := c.once(method, path, payload, decode)
		if err == nil {
			return nil
		}
		lastErr = err
		if retryAfter == noRetry || attempt >= c.MaxRetries {
			return lastErr
		}
		// A transport failure (no HTTP status) means the seed itself is
		// unreachable: cool it down so subsequent requests do not re-dial
		// a dead node first. Status failures just rotate.
		if APIStatus(err) == 0 {
			c.markSeedDown()
		} else {
			c.rotateSeed()
		}
		time.Sleep(c.backoff(attempt, retryAfter))
	}
}

// noRetry marks a permanent failure (4xx other than 429, or a decode
// error) in once's retryAfter channel.
const noRetry = "\x00permanent"

// once performs a single HTTP exchange. The returned string is the
// Retry-After header value ("" when absent) for retryable failures, or
// noRetry for permanent ones.
func (c *Client) once(method, path string, payload []byte, decode func(io.Reader) error) (string, error) {
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.currentBase()+path, reader)
	if err != nil {
		return noRetry, fmt.Errorf("client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.trace.Valid() {
		req.Header.Set(obs.TraceHeader, c.trace.String())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// Transport-level failure: connection refused, reset, timeout.
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var body struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error != "" {
			msg = body.Error
		}
		apiErr := &APIError{Status: resp.StatusCode, Method: method, Path: path, Msg: msg}
		if retryable(resp.StatusCode) {
			apiErr.RetryAfter = resp.Header.Get("Retry-After")
			return apiErr.RetryAfter, apiErr
		}
		return noRetry, apiErr
	}
	if err := decode(resp.Body); err != nil {
		return noRetry, fmt.Errorf("client: %s %s: decoding response: %w", method, path, err)
	}
	return "", nil
}

// decodeJSON is do's body decoder for the JSON endpoints.
func decodeJSON(out any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// NewBatchID generates a random ingest batch ID ("" when the system
// has no entropy, falling back to non-idempotent ingest). Exported for
// callers that split one logical batch across shards and need the
// sub-batch IDs to derive from a shared parent.
func NewBatchID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Ingest POSTs a batch of flow records. The batch carries a generated
// ID so server-side deduplication makes retries idempotent.
func (c *Client) Ingest(records []netflow.Record) (IngestResult, error) {
	return c.IngestBatch(NewBatchID(), records)
}

// IngestBatch is Ingest with a caller-chosen batch ID, for exactly-once
// pipelines that must keep the ID stable across their own retries (the
// cluster router derives per-shard IDs from the client's parent ID).
func (c *Client) IngestBatch(batchID string, records []netflow.Record) (IngestResult, error) {
	payload, err := AppendFlows(make([]byte, 0, flowRecordBytes*(len(records)+1)), batchID, records)
	if err != nil {
		return IngestResult{}, fmt.Errorf("client: %w", err)
	}
	var out IngestResult
	err = c.do(http.MethodPost, "/v1/flows", payload, decodeJSON(&out))
	return out, err
}

// HistoryQuery bounds a history fetch. Zero-value fields are omitted
// from the request: the server applies its whole-archive window bounds
// and DefaultHistoryLimit. Limit -1 explicitly requests the unbounded
// archive (sent as limit=0).
type HistoryQuery struct {
	// From / To are inclusive window bounds, applied only when the
	// matching Has flag is set (0 is a valid window index).
	From, To       int
	HasFrom, HasTo bool
	// Limit > 0 keeps the newest Limit entries; 0 defers to the server
	// default; -1 asks for everything.
	Limit int
}

func (q HistoryQuery) encode() string {
	v := url.Values{}
	if q.HasFrom {
		v.Set("from", strconv.Itoa(q.From))
	}
	if q.HasTo {
		v.Set("to", strconv.Itoa(q.To))
	}
	switch {
	case q.Limit > 0:
		v.Set("limit", strconv.Itoa(q.Limit))
	case q.Limit < 0:
		v.Set("limit", "0")
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// History fetches a label's archived signatures under the server's
// default limit (the newest DefaultHistoryLimit entries).
func (c *Client) History(label string) (HistoryResponse, error) {
	return c.HistoryRange(label, HistoryQuery{})
}

// HistoryRange fetches a label's archived signatures within explicit
// window bounds and limit; see HistoryQuery.
func (c *Client) HistoryRange(label string, q HistoryQuery) (HistoryResponse, error) {
	var out HistoryResponse
	err := c.doJSON(http.MethodGet, "/v1/signatures/"+url.PathEscape(label)+q.encode(), nil, decodeJSON(&out))
	return out, err
}

// Search runs a nearest-signature query.
func (c *Client) Search(req SearchRequest) (SearchResponse, error) {
	var out SearchResponse
	err := c.doJSON(http.MethodPost, "/v1/search", req, decodeJSON(&out))
	return out, err
}

// SearchBatch answers many nearest-signature queries under one
// distance in a single round trip. Per-query failures come back as
// slot errors in the response, not as a call error.
func (c *Client) SearchBatch(req BatchSearchRequest) (BatchSearchResponse, error) {
	var out BatchSearchResponse
	err := c.doJSON(http.MethodPost, "/v1/search/batch", req, decodeJSON(&out))
	return out, err
}

// WatchlistAdd archives a label's stored signatures under an
// individual key.
func (c *Client) WatchlistAdd(req WatchlistAddRequest) (WatchlistAddResponse, error) {
	var out WatchlistAddResponse
	err := c.doJSON(http.MethodPost, "/v1/watchlist", req, decodeJSON(&out))
	return out, err
}

// WatchlistHits fetches the recorded hit log.
func (c *Client) WatchlistHits() (WatchlistHitsResponse, error) {
	var out WatchlistHitsResponse
	err := c.doJSON(http.MethodGet, "/v1/watchlist/hits", nil, decodeJSON(&out))
	return out, err
}

// Anomalies fetches behaviour-change reports between the last two
// archived windows (zCut ≤ 0 uses the server default).
func (c *Client) Anomalies(zCut float64) (AnomaliesResponse, error) {
	path := "/v1/anomalies"
	if zCut > 0 {
		path += fmt.Sprintf("?z=%g", zCut)
	}
	var out AnomaliesResponse
	err := c.doJSON(http.MethodGet, path, nil, decodeJSON(&out))
	return out, err
}

// Metrics fetches the node's metric families: GET /metrics, parsed by
// obs.ParseExposition. Like every JSON call it retries and fails over
// across seeds, so metrics federation survives a dead seed.
func (c *Client) Metrics() ([]obs.Family, error) {
	var fams []obs.Family
	err := c.doJSON(http.MethodGet, "/metrics", nil, func(r io.Reader) (err error) {
		fams, err = obs.ParseExposition(r)
		return err
	})
	return fams, err
}

// Health fetches the liveness report.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	err := c.doJSON(http.MethodGet, "/healthz", nil, decodeJSON(&out))
	return out, err
}

// Ready fetches the readiness report. A draining or degraded server
// answers 503, which surfaces here as an error after the client's
// retries are exhausted.
func (c *Client) Ready() (ReadyResponse, error) {
	var out ReadyResponse
	err := c.doJSON(http.MethodGet, "/readyz", nil, decodeJSON(&out))
	return out, err
}

// Traces fetches the most recent request traces, newest first (n ≤ 0
// fetches the whole ring).
func (c *Client) Traces(n int) (TracesResponse, error) {
	path := "/v1/traces"
	if n > 0 {
		path += fmt.Sprintf("?n=%d", n)
	}
	var out TracesResponse
	err := c.doJSON(http.MethodGet, path, nil, decodeJSON(&out))
	return out, err
}

// Persistence fetches the label-keyed persistence pairs between the
// last two archived windows (the anomaly computation's intermediate
// form; distance "" uses the server default).
func (c *Client) Persistence(distance string) (PersistenceResponse, error) {
	path := "/v1/persistence"
	if distance != "" {
		path += "?distance=" + url.QueryEscape(distance)
	}
	var out PersistenceResponse
	err := c.doJSON(http.MethodGet, path, nil, decodeJSON(&out))
	return out, err
}

// ReplicationStatus fetches the primary's WAL shipping state.
func (c *Client) ReplicationStatus() (ReplicationStatusResponse, error) {
	var out ReplicationStatusResponse
	err := c.doJSON(http.MethodGet, "/v1/replication/status", nil, decodeJSON(&out))
	return out, err
}

// WALChunk is one GET /v1/replication/wal response: raw durable log
// bytes of one generation plus the cursor metadata from the headers.
type WALChunk struct {
	Gen    int
	Sealed bool
	Size   int64
	Data   []byte
}

// FetchWAL reads up to max bytes (0 = server default) of WAL
// generation gen starting at byte offset from; a longer chunk is an
// error. Unlike the JSON methods it performs a single attempt — the
// replication loop owns its own retry cadence — but a transport failure
// still rotates the seed.
func (c *Client) FetchWAL(gen int, from int64, max int) (WALChunk, error) {
	path := fmt.Sprintf("/v1/replication/wal?gen=%d&from=%d", gen, from)
	if max > 0 {
		path += fmt.Sprintf("&max=%d", max)
	}
	req, err := http.NewRequest(http.MethodGet, c.currentBase()+path, nil)
	if err != nil {
		return WALChunk{}, fmt.Errorf("client: %w", err)
	}
	if c.trace.Valid() {
		req.Header.Set(obs.TraceHeader, c.trace.String())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		c.markSeedDown()
		return WALChunk{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		e := &APIError{Status: resp.StatusCode, Method: http.MethodGet, Path: path, Msg: msg}
		if retryable(resp.StatusCode) {
			e.RetryAfter = resp.Header.Get("Retry-After")
			c.rotateSeed()
		}
		return WALChunk{}, e
	}
	var chunk WALChunk
	if chunk.Gen, err = strconv.Atoi(resp.Header.Get(HeaderWALGen)); err != nil {
		return WALChunk{}, fmt.Errorf("client: bad %s header %q", HeaderWALGen, resp.Header.Get(HeaderWALGen))
	}
	chunk.Sealed = resp.Header.Get(HeaderWALSealed) == "true"
	if chunk.Size, err = strconv.ParseInt(resp.Header.Get(HeaderWALSize), 10, 64); err != nil {
		return WALChunk{}, fmt.Errorf("client: bad %s header %q", HeaderWALSize, resp.Header.Get(HeaderWALSize))
	}
	limit := int64(DefaultReplicationChunk)
	if max > 0 {
		limit = int64(max)
	}
	if chunk.Data, err = readBody(resp.Body, resp.ContentLength, limit); err != nil {
		return WALChunk{}, fmt.Errorf("client: reading WAL chunk: %w", err)
	}
	return chunk, nil
}

// TraceByID fetches one retained trace by ID from the node's ring. A
// node that never finished the trace (or has already evicted it)
// answers 404, surfaced as an *APIError.
func (c *Client) TraceByID(id string) (obs.TraceSnapshot, error) {
	var out obs.TraceSnapshot
	err := c.doJSON(http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, decodeJSON(&out))
	return out, err
}
