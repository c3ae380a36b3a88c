package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying a serialized TraceContext on
// cross-process calls, traceparent-shaped: "traceid-spanid".
const TraceHeader = "X-Sig-Trace"

// TraceContext identifies a position inside a distributed trace: the
// trace's ID plus the span under which downstream work should attach.
// The zero value is invalid and propagates nothing.
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries both halves.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != "" && tc.SpanID != ""
}

// String serializes the context in the wire shape "traceid-spanid"
// ("" when invalid).
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return tc.TraceID + "-" + tc.SpanID
}

// ParseTraceContext parses the wire shape back into a context. Span IDs
// never contain '-', so the split is on the last dash; trace IDs may
// contain dashes (the entropy-less "seq-…" fallback). Anything
// malformed yields the zero (invalid) context, so callers can feed a
// raw header value straight in.
func ParseTraceContext(s string) TraceContext {
	i := strings.LastIndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return TraceContext{}
	}
	return TraceContext{TraceID: s[:i], SpanID: s[i+1:]}
}

// Tracer mints per-request traces and retains a bounded ring of the
// most recent finished ones (served by GET /v1/traces). Each trace is a
// flat list of named child spans with durations — enough to answer
// "where did this slow ingest batch spend its time?" without external
// infrastructure. A span whose duration meets the slow-op threshold is
// logged exactly once, as one structured line carrying the trace ID.
//
// A nil *Tracer (and the nil *Trace it starts) is a no-op, so tracing
// can be compiled into hot paths unconditionally.
type Tracer struct {
	capacity int
	slow     time.Duration
	logger   *slog.Logger
	seq      atomic.Uint64

	mu    sync.Mutex
	ring  []TraceSnapshot // circular, len ≤ capacity
	next  int             // ring insertion point once full
	total uint64          // traces ever finished
}

// NewTracer builds a tracer retaining up to capacity finished traces
// (≤ 0 means 64). slow is the span duration at or above which a span is
// logged through logger (0 disables slow-op logging; a nil logger
// disables it too).
func NewTracer(capacity int, slow time.Duration, logger *slog.Logger) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{capacity: capacity, slow: slow, logger: logger}
}

// newTraceID returns a 16-hex-char random ID, falling back to a
// sequence number when entropy is unavailable.
func (t *Tracer) newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%012d", t.seq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// newSpanID returns an 8-hex-char random span ID. The fallback is
// dash-free on purpose: ParseTraceContext splits on the last dash.
func (t *Tracer) newSpanID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("span%010d", t.seq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Start begins a trace. Finish it to archive it into the ring.
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{tracer: t, id: t.newTraceID(), span: t.newSpanID(), name: name, start: time.Now()}
}

// StartRemote begins a trace that adopts an inbound context: the trace
// shares tc's trace ID and records tc's span as its parent, so rings on
// both sides of a cross-process call stitch on (trace ID, span
// parentage). An invalid context falls back to Start.
func (t *Tracer) StartRemote(name string, tc TraceContext) *Trace {
	if t == nil {
		return nil
	}
	if !tc.Valid() {
		return t.Start(name)
	}
	return &Trace{
		tracer: t, id: tc.TraceID, span: t.newSpanID(), parent: tc.SpanID,
		name: name, start: time.Now(),
	}
}

// SpanSnapshot is one finished child span. SpanID is set only for
// spans opened with SpanWith — the ones whose context was handed to a
// downstream node, which names it as ParentSpanID in its own ring.
type SpanSnapshot struct {
	Name           string `json:"name"`
	SpanID         string `json:"span_id,omitempty"`
	OffsetMicros   int64  `json:"offset_micros"` // start relative to the trace start
	DurationMicros int64  `json:"duration_micros"`
}

// TraceSnapshot is one finished trace, as served by /v1/traces.
// ParentSpanID is set on traces started via StartRemote: the upstream
// span this trace is a child segment of.
type TraceSnapshot struct {
	ID             string         `json:"id"`
	Name           string         `json:"name"`
	SpanID         string         `json:"span_id,omitempty"`
	ParentSpanID   string         `json:"parent_span_id,omitempty"`
	Start          time.Time      `json:"start"`
	DurationMicros int64          `json:"duration_micros"`
	Slow           bool           `json:"slow,omitempty"`
	Spans          []SpanSnapshot `json:"spans,omitempty"`
}

// Trace is an in-flight trace. Span and Finish are goroutine-safe,
// though the serving stack runs each trace on one goroutine.
type Trace struct {
	tracer *Tracer
	id     string
	span   string // this trace's own span ID
	parent string // upstream span ID when adopted via StartRemote
	name   string
	start  time.Time

	mu    sync.Mutex
	spans []SpanSnapshot
	slow  bool
}

// ID reports the trace ID ("" for a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Context returns the trace's propagation context — its trace ID plus
// its own span ID — for stamping onto outbound calls that should
// attach directly under the trace root (zero for a nil trace; see
// SpanWith for attaching under a specific child span).
func (tr *Trace) Context() TraceContext {
	if tr == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: tr.id, SpanID: tr.span}
}

// Span starts a named child span and returns the function that ends
// it. Ending a span whose duration reaches the tracer's slow-op
// threshold emits exactly one structured log line with the trace ID.
func (tr *Trace) Span(name string) func() {
	if tr == nil {
		return func() {}
	}
	return tr.endFunc(name, "")
}

// Record adds a finished span that ran from begin to end: work timed by
// a clock read where no span could be opened, such as inside a call.
// Like ending a Span, it logs a slow one.
func (tr *Trace) Record(name string, begin, end time.Time) {
	if tr == nil {
		return
	}
	tr.record(name, "", begin, end)
}

// SpanWith is Span plus a minted per-span context: the returned
// TraceContext carries the trace ID and a fresh span ID that is
// recorded on the span's snapshot, so work dispatched under this span
// (a per-shard call, say) names exactly this span as its parent on the
// far side.
func (tr *Trace) SpanWith(name string) (func(), TraceContext) {
	if tr == nil {
		return func() {}, TraceContext{}
	}
	sid := tr.tracer.newSpanID()
	return tr.endFunc(name, sid), TraceContext{TraceID: tr.id, SpanID: sid}
}

func (tr *Trace) endFunc(name, sid string) func() {
	begin := time.Now()
	return func() { tr.record(name, sid, begin, time.Now()) }
}

func (tr *Trace) record(name, sid string, begin, end time.Time) {
	d := end.Sub(begin)
	tr.mu.Lock()
	tr.spans = append(tr.spans, SpanSnapshot{
		Name:           name,
		SpanID:         sid,
		OffsetMicros:   begin.Sub(tr.start).Microseconds(),
		DurationMicros: d.Microseconds(),
	})
	slow := tr.tracer.slow > 0 && d >= tr.tracer.slow
	if slow {
		tr.slow = true
	}
	tr.mu.Unlock()
	if slow && tr.tracer.logger != nil {
		tr.tracer.logger.Warn("slow operation",
			"trace", tr.id, "op", tr.name, "span", name,
			"duration", d.Round(time.Microsecond).String())
	}
}

// Finish ends the trace and archives it into the tracer's ring,
// evicting the oldest trace when the ring is full.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	t := tr.tracer
	tr.mu.Lock()
	snap := TraceSnapshot{
		ID:             tr.id,
		Name:           tr.name,
		SpanID:         tr.span,
		ParentSpanID:   tr.parent,
		Start:          tr.start,
		DurationMicros: time.Since(tr.start).Microseconds(),
		Slow:           tr.slow,
		Spans:          tr.spans,
	}
	tr.spans = nil // the snapshot owns the slice now
	tr.mu.Unlock()

	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.next] = snap
		t.next = (t.next + 1) % t.capacity
	}
	t.total++
	t.mu.Unlock()
}

// Recent returns up to n finished traces, newest first (n ≤ 0 means
// all retained).
func (t *Tracer) Recent(n int) []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]TraceSnapshot, 0, n)
	// Newest is the slot just before the insertion point (or the slice
	// tail while the ring is still filling).
	newest := size - 1
	if size == t.capacity {
		newest = (t.next - 1 + t.capacity) % t.capacity
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(newest-i+size)%size])
	}
	return out
}

// Find returns the retained trace with the given ID, scanning the ring
// newest-first so an improbable ID collision resolves to the latest
// finisher. The second result is false when the trace was never
// finished here or has been evicted.
func (t *Tracer) Find(id string) (TraceSnapshot, bool) {
	if t == nil || id == "" {
		return TraceSnapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if size == 0 {
		return TraceSnapshot{}, false
	}
	newest := size - 1
	if size == t.capacity {
		newest = (t.next - 1 + t.capacity) % t.capacity
	}
	for i := 0; i < size; i++ {
		if snap := t.ring[(newest-i+size)%size]; snap.ID == id {
			return snap, true
		}
	}
	return TraceSnapshot{}, false
}

// Total reports how many traces have ever finished (including ones
// evicted from the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
