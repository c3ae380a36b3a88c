package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/obs"
)

// Client is a thin Go client for the sigserverd HTTP API, used by the
// sigtool `client` subcommand, by --replay self-benchmarking, and by
// the end-to-end tests. It talks to one address: failing over to
// another node is the cluster router's job (its health prober), which
// marks what a follower answered as stale.
//
// Transient failures — connection errors, 429 throttling, 5xx — are
// retried with jittered exponential backoff. Ingest batches carry a
// generated batch ID (stable across the retries of one call), so a
// retry after a timed-out-but-actually-applied POST is deduplicated
// server-side instead of double-counting flows.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
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

	// trace, when valid, is stamped onto every request as the
	// X-Sig-Trace header. Set via Traced.
	trace obs.TraceContext
}

// Traced returns a copy of the client that stamps tc onto every
// request as the X-Sig-Trace header, so the far side's tracer records
// its work as a child segment of tc's span instead of minting a fresh
// trace ID. The copy is cheap enough to mint per call. An invalid
// context returns the receiver unchanged.
func (c *Client) Traced(tc obs.TraceContext) *Client {
	if !tc.Valid() {
		return c
	}
	v := *c
	v.trace = tc
	return &v
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

// RetryAfter extracts the Retry-After header value from an *APIError
// chain ("" when err carries none).
func RetryAfter(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return ""
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{
		Base:         base,
		HTTP:         &http.Client{Timeout: 30 * time.Second},
		MaxRetries:   3,
		RetryBackoff: 100 * time.Millisecond,
	}
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
// panic the jitter draw) from stalling or crashing the caller.
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
	return clampDelay(d/2+time.Duration(mrand.Int64N(int64(d))), base)
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

// doJSON is do with body, when non-nil, marshalled as the JSON payload.
func (c *Client) doJSON(method, path string, body any, decode func(*http.Response) error) error {
	if body == nil {
		return c.do(method, path, "", nil, decode)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.do(method, path, "application/json", payload, decode)
}

// do runs one API call through the retry loop: payload, when non-nil,
// is sent as the body, of contentType, and decode reads a successful
// response.
func (c *Client) do(method, path, contentType string, payload []byte, decode func(*http.Response) error) error {
	for attempt := 0; ; attempt++ {
		retryAfter, err := c.once(method, path, contentType, payload, decode)
		if err == nil || retryAfter == noRetry || attempt >= c.MaxRetries {
			return err
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
func (c *Client) once(method, path, contentType string, payload []byte, decode func(*http.Response) error) (string, error) {
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.Base+path, reader)
	if err != nil {
		return noRetry, fmt.Errorf("client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.trace.Valid() {
		req.Header.Set(obs.TraceHeader, c.trace.String())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// Transport-level failure: connection refused, reset, timeout.
		return "", fmt.Errorf("client: %w", err)
	}
	defer drainClose(resp.Body)
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
	if err := decode(resp); err != nil {
		return noRetry, fmt.Errorf("client: %s %s: decoding response: %w", method, path, err)
	}
	return "", nil
}

// drainBytes bounds what drainClose reads of a body its decoder left.
const drainBytes = 64 << 10

// drainClose reads what is left of a response body, up to drainBytes,
// before closing it: the transport keeps a connection only for a body
// read to its end, and a JSON decoder stops at the end of its value,
// before a chunked body's last chunk. A longer rest is not worth the
// read, and its connection is dropped.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, drainBytes)
	body.Close()
}

// decodeJSON is do's body decoder for the JSON endpoints.
func decodeJSON(out any) func(*http.Response) error {
	return func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(out) }
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
	path, contentType, payload, err := flowsRequest(batchID, records)
	if err != nil {
		return IngestResult{}, fmt.Errorf("client: %w", err)
	}
	var out IngestResult
	err = c.do(http.MethodPost, path, contentType, payload, decodeJSON(&out))
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
	err := c.doJSON(http.MethodGet, "/v1/signatures/"+url.PathEscape(label)+q.encode(), nil, decodeLaidOut(&out, (*layout).historyResponse))
	return out, err
}

// Search runs a nearest-signature query.
func (c *Client) Search(req SearchRequest) (SearchResponse, error) {
	var out SearchResponse
	err := c.doJSON(http.MethodPost, "/v1/search", req, decodeLaidOut(&out, (*layout).searchResponse))
	return out, err
}

// SearchBatch answers many nearest-signature queries under one
// distance in a single round trip. Per-query failures come back as
// slot errors in the response, not as a call error.
func (c *Client) SearchBatch(req BatchSearchRequest) (BatchSearchResponse, error) {
	var out BatchSearchResponse
	err := c.doJSON(http.MethodPost, "/v1/search/batch", req, decodeLaidOut(&out, (*layout).batchSearchResponse))
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
// archived windows under distance ("" uses the server's) and the z-score
// cut zCut (≤ 0 uses the server's).
func (c *Client) Anomalies(distance string, zCut float64) (AnomaliesResponse, error) {
	q := url.Values{"distance": {distance}}
	if zCut > 0 {
		q.Set("z", strconv.FormatFloat(zCut, 'g', -1, 64))
	}
	var out AnomaliesResponse
	err := c.doJSON(http.MethodGet, "/v1/anomalies?"+q.Encode(), nil, decodeJSON(&out))
	return out, err
}

// Metrics fetches the node's metric families: GET /metrics, parsed by
// obs.ParseExposition. Like every JSON call it retries transient
// failures.
func (c *Client) Metrics() ([]obs.Family, error) {
	var fams []obs.Family
	err := c.doJSON(http.MethodGet, "/metrics", nil, func(resp *http.Response) (err error) {
		fams, err = obs.ParseExposition(resp.Body)
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
// error. Unlike the JSON methods it performs a single attempt: the
// replication loop owns its own retry cadence.
func (c *Client) FetchWAL(gen int, from int64, max int) (WALChunk, error) {
	path := fmt.Sprintf("/v1/replication/wal?gen=%d&from=%d", gen, from)
	limit := int64(DefaultReplicationChunk)
	if max > 0 {
		path += fmt.Sprintf("&max=%d", max)
		limit = int64(max)
	}
	var chunk WALChunk
	_, err := c.once(http.MethodGet, path, "", nil, func(resp *http.Response) (err error) {
		if chunk.Gen, err = strconv.Atoi(resp.Header.Get(HeaderWALGen)); err != nil {
			return fmt.Errorf("bad %s header %q", HeaderWALGen, resp.Header.Get(HeaderWALGen))
		}
		chunk.Sealed = resp.Header.Get(HeaderWALSealed) == "true"
		if chunk.Size, err = strconv.ParseInt(resp.Header.Get(HeaderWALSize), 10, 64); err != nil {
			return fmt.Errorf("bad %s header %q", HeaderWALSize, resp.Header.Get(HeaderWALSize))
		}
		chunk.Data, err = readBody(resp.Body, resp.ContentLength, limit)
		return err
	})
	if err != nil {
		return WALChunk{}, err
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
