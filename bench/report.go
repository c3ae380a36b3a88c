package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef declares one end-to-end metric of BENCHMARK.json. Bound is
// the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Stage  string
}

// endToEnd is what a user of the system sees. Every run reports all of
// them; Stage names the stage of the run that measures each. A timing's
// bound is three times the quartile spread the noise check shows for it
// on the sandbox, at most the contract's quarter (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "set-up"},
	{"ingest_records_per_s", "records/s", "higher", 0.25, "ingest-durable"},
	{"window_close_p50_ms", "ms", "lower", 0.25, "ingest-durable"},
	{"ingest_small_batch_records_per_s", "records/s", "higher", 0.25, "ingest-durable"},
	{"restart_s", "s", "lower", 0.25, "ingest-durable"},
	{"disk_bytes_per_record", "bytes", "lower", 0.03, "ingest-durable"},
	{"search_hot_p50_ms", "ms", "lower", 0.25, "query-tiered"},
	{"search_batch_queries_per_s", "queries/s", "higher", 0.25, "query-tiered"},
	{"search_cold_p50_ms", "ms", "lower", 0.25, "query-tiered"},
	{"routed_ingest_records_per_s", "records/s", "higher", 0.25, "cluster-mixed"},
	{"mixed_search_queries_per_s", "queries/s", "higher", 0.25, "cluster-mixed"},
	{"routed_search_p50_ms", "ms", "lower", 0.25, "cluster-mixed"},
	{"analytics_s", "s", "lower", 0.25, "analytics-batch"},
}

// metric is the declaration of a named end-to-end metric.
func metric(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("undeclared end-to-end metric " + name)
}

// value is one measured metric with the number of samples behind it.
// AsTimed is what the clock gave before the value was stated at the
// reference speed; for counts and per-layer metrics the two are equal.
type value struct {
	Value   float64
	AsTimed float64
	Unit    string
	N       int
}

// report gathers one run's metrics and its output checks.
type report struct {
	workload string
	e2e      map[string]value
	layers   map[string]value

	mu        sync.Mutex // the mixed phase checks outputs from two goroutines
	attempted int
	failed    int
	failures  []string
	// selfTime is, per span name, the traced run's time not covered by
	// child spans.
	selfTime map[string]time.Duration
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]value{}, layers: map[string]value{}}
}

// endToEnd reports a declared end-to-end metric; its unit is the
// declared one.
func (r *report) endToEnd(name string, v, asTimed float64, n int) {
	r.e2e[name] = value{v, asTimed, metric(name).Unit, n}
}

func (r *report) layer(name string, v float64, unit string, n int) {
	r.layers[name] = value{v, v, unit, n}
}

// op counts one operation whose output was checked; a failed one keeps
// its reason (the first few) for the printed report.
func (r *report) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// validate rejects a run that did not produce every declared end-to-end
// metric, or produced a number the result line cannot carry.
func (r *report) validate() error {
	for _, d := range endToEnd {
		if v, ok := r.e2e[d.Name]; !ok || v.Value == 0 {
			return fmt.Errorf("metric %s was not produced", d.Name)
		}
	}
	for _, src := range []map[string]value{r.e2e, r.layers} {
		for name, v := range src {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("metric %s is %v", name, v.Value)
			}
		}
	}
	return nil
}

func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, d := range endToEnd {
		if v, ok := r.e2e[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-10s (as timed %14.4f) n=%-6d %s is better, bound %.0f%%, stage %s\n",
				d.Name, v.Value, v.Unit, v.AsTimed, v.N, d.Better, 100*d.Bound, d.Stage)
		}
	}
	if traced {
		names := make([]string, 0, len(r.layers))
		for name := range r.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := r.layers[name]
			fmt.Fprintf(w, "  %-40s %14.4f %-10s n=%d\n", name, v.Value, v.Unit, v.N)
		}
		names = names[:0]
		for name := range r.selfTime {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.selfTime[names[i]] > r.selfTime[names[j]] })
		fmt.Fprintln(w, "  self time by span (span minus its children), largest first:")
		for _, name := range names[:min(len(names), 15)] {
			fmt.Fprintf(w, "    %-36s %10.3f s\n", name, r.selfTime[name].Seconds())
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output: end-to-end metrics from an untraced run, per-layer
// metrics from a traced one.
func (r *report) resultLine(traced bool) string {
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.e2e
	if traced {
		src = r.layers
	}
	metrics := make(map[string]metricJSON, len(src))
	for name, v := range src {
		metrics[name] = metricJSON{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can get here, and validate rejects those
	}
	return string(b)
}
