// Package obs is the module's dependency-free observability layer: a
// metrics registry (counters, gauges, log-bucketed latency histograms
// with quantile estimates), Prometheus text exposition, and lightweight
// span tracing with slow-operation logging via log/slog. It is the
// telemetry substrate threaded through the serving stack — the HTTP
// handlers, the WAL, the snapshot store, the streaming pipeline and the
// pairwise-distance engine all record into one Registry so a single
// scrape shows where a request actually spent its time.
//
// Design constraints, in order:
//
//  1. Hot-path writes are lock-free: counters and gauges are single
//     atomic adds, a histogram observation is two atomic adds plus one
//     atomic bucket increment. Registration (name → metric) takes a
//     mutex but happens once at startup.
//  2. Every metric handle is nil-receiver safe. Instrumented packages
//     (wal, store, stream, distmat) accept optional handles and call
//     them unconditionally; a nil handle is a no-op, so library users
//     who never configure a Registry pay one predictable branch.
//  3. Counters are monotone by construction (negative adds are
//     rejected), so scrapers may rate() every counter in a snapshot.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing int64. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Negative deltas are ignored: counters
// are monotone so scrapers can rate() them.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (either direction).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reports the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates registry entries for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindHistogramVec
	kindCounterVec
	kindGaugeVec
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVec:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered family.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() int64
	hist    *Histogram
	vec     *HistogramVec
	cvec    *CounterVec
	gvec    *GaugeVec
}

// Registry is a named collection of metrics. Registration methods are
// get-or-create: asking twice for the same name and kind returns the
// same handle, so independent subsystems can share one registry without
// coordinating, and restarts of a subcomponent re-bind cleanly. Asking
// for an existing name with a different kind panics — that is a
// programming error, not an operational condition.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*metric
	order  []*metric // registration order, for stable exposition
	// constLabels is the pre-rendered `k="v",...` pair list stamped on
	// every exposition sample (node identity in a cluster); "" when the
	// registry carries none.
	constLabels string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// validName enforces the Prometheus metric-name grammar so every
// registered family renders as valid exposition.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register looks up or creates the named family, panicking on a name
// reused with a different kind.
func (r *Registry) register(name, help string, kind metricKind, build func(*metric)) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	build(m)
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge computed at scrape time (e.g. uptime).
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.register(name, help, kindGaugeFunc, func(m *metric) {})
	r.mu.Lock()
	m.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram with the default log-spaced
// latency buckets (seconds, 1µs up to ~2 minutes), creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramWith(name, help, nil)
}

// HistogramWith is Histogram with explicit bucket upper bounds
// (ascending; nil means the default latency buckets). Bounds are fixed
// at first registration; later callers get the existing histogram.
func (r *Registry) HistogramWith(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func(m *metric) {
		m.hist = NewHistogram(bounds)
	}).hist
}

// HistogramVec returns the named histogram family partitioned by one
// label (e.g. per-route request latency), creating it on first use.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return r.register(name, help, kindHistogramVec, func(m *metric) {
		m.vec = newHistogramVec(label, bounds)
	}).vec
}

// CounterVec returns the named counter family partitioned by one label
// (e.g. routed flows by shard), creating it on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, help, kindCounterVec, func(m *metric) {
		m.cvec = newCounterVec(label)
	}).cvec
}

// GaugeVec returns the named gauge family partitioned by one label
// (e.g. replication lag by shard), creating it on first use.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return r.register(name, help, kindGaugeVec, func(m *metric) {
		m.gvec = newGaugeVec(label)
	}).gvec
}

// SetConstLabels stamps every sample the registry renders with the
// given label pairs — node identity (shard index, role, ring epoch) in
// a cluster deployment, so one Prometheus scrape across the fleet
// stays distinguishable per node. Pairs render sorted by name; label
// names must be grammatical and must not collide with any vec family's
// partition label, values are escaped. Calling again replaces the set;
// an empty map clears it. Snapshot is unaffected.
func (r *Registry) SetConstLabels(labels map[string]string) {
	names := make([]string, 0, len(labels))
	for name := range labels {
		if !validName(name) {
			panic(fmt.Sprintf("obs: invalid const label name %q", name))
		}
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%q", name, labels[name])
	}
	rendered := ""
	if len(parts) > 0 {
		rendered = parts[0]
		for _, p := range parts[1:] {
			rendered += "," + p
		}
	}
	r.mu.Lock()
	r.constLabels = rendered
	r.mu.Unlock()
}

// constLabelString reports the rendered const-label pair list.
func (r *Registry) constLabelString() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.constLabels
}

// families returns the registered metrics in registration order.
func (r *Registry) families() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*metric(nil), r.order...)
}

// Snapshot maps every plain counter, gauge and gauge-func to its
// value, for in-process readers (benchmarks, tests) that want a few
// scalars without rendering the exposition. Vec families and histograms
// are left out: read a vec through With(v).Value(), anything else
// through WritePrometheus and ParseExposition.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, m := range r.families() {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.counter.Value()
		case kindGauge:
			out[m.name] = m.gauge.Value()
		case kindGaugeFunc:
			if m.gaugeFn != nil {
				out[m.name] = m.gaugeFn()
			}
		}
	}
	return out
}

// HistogramVec partitions a histogram family by one label value, e.g.
// HTTP request latency by route. With() is goroutine-safe and
// get-or-create; the per-label histograms share one bucket layout.
type HistogramVec struct {
	label  string
	bounds []float64

	mu    sync.RWMutex
	kids  map[string]*Histogram
	order []string
}

func newHistogramVec(label string, bounds []float64) *HistogramVec {
	if !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return &HistogramVec{label: label, bounds: bounds, kids: make(map[string]*Histogram)}
}

// With returns the histogram for the given label value, creating it on
// first use. A nil vec returns a nil (no-op) histogram.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	h, ok := v.kids[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.kids[value]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.kids[value] = h
	v.order = append(v.order, value)
	return h
}

// Labels returns the label values seen so far, sorted.
func (v *HistogramVec) Labels() []string {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(out)
	return out
}

// CounterVec partitions a counter family by one label value, e.g.
// routed flow counts by shard. With() is goroutine-safe and
// get-or-create; a nil vec hands out nil (no-op) counters.
type CounterVec struct {
	label string

	mu    sync.RWMutex
	kids  map[string]*Counter
	order []string
}

func newCounterVec(label string) *CounterVec {
	if !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return &CounterVec{label: label, kids: make(map[string]*Counter)}
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c, ok := v.kids[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[value]; ok {
		return c
	}
	c = &Counter{}
	v.kids[value] = c
	v.order = append(v.order, value)
	return c
}

// Labels returns the label values seen so far, sorted.
func (v *CounterVec) Labels() []string {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(out)
	return out
}

// GaugeVec partitions a gauge family by one label value, e.g.
// follower replication lag by shard. With() is goroutine-safe and
// get-or-create; a nil vec hands out nil (no-op) gauges.
type GaugeVec struct {
	label string

	mu    sync.RWMutex
	kids  map[string]*Gauge
	order []string
}

func newGaugeVec(label string) *GaugeVec {
	if !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	return &GaugeVec{label: label, kids: make(map[string]*Gauge)}
}

// With returns the gauge for the given label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g, ok := v.kids[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.kids[value]; ok {
		return g
	}
	g = &Gauge{}
	v.kids[value] = g
	v.order = append(v.order, value)
	return g
}

// Labels returns the label values seen so far, sorted.
func (v *GaugeVec) Labels() []string {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	out := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(out)
	return out
}
