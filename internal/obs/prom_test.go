package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestWritePrometheusAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("flows_total", "flows received").Add(3)
	r.Gauge("store_windows", "retained windows").Set(7)
	r.GaugeFunc("uptime_seconds", "seconds since boot", func() int64 { return 42 })
	h := r.Histogram("wal_fsync_seconds", "WAL fsync latency")
	h.Observe(0.001)
	h.Observe(0.004)
	vec := r.HistogramVec("http_route_seconds", "request latency by route", "route", nil)
	vec.With("post_v1_flows").Observe(0.002)
	vec.With("get_metrics").Observe(0.0001)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	families := parseTypes(t, out)
	want := map[string]string{
		"flows_total":        "counter",
		"store_windows":      "gauge",
		"uptime_seconds":     "gauge",
		"wal_fsync_seconds":  "histogram",
		"http_route_seconds": "histogram",
	}
	for name, typ := range want {
		if families[name] != typ {
			t.Fatalf("family %s = %q, want %q\n%s", name, families[name], typ, out)
		}
	}
	for _, line := range []string{
		"flows_total 3",
		"store_windows 7",
		"uptime_seconds 42",
		"wal_fsync_seconds_count 2",
		`http_route_seconds_bucket{route="post_v1_flows",le="+Inf"} 1`,
		`http_route_seconds_count{route="post_v1_flows"} 1`,
		`http_route_seconds_count{route="get_metrics"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
	// Buckets are cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `wal_fsync_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
}

func TestWritePrometheusConstLabelsAndCounterVec(t *testing.T) {
	r := NewRegistry()
	r.Counter("flows_total", "flows received").Add(5)
	cv := r.CounterVec("routed_flows_total", "flows routed by shard", "shard")
	cv.With("0").Add(2)
	cv.With("1").Add(9)
	h := r.Histogram("fsync_seconds", "fsync latency")
	h.Observe(0.01)
	vec := r.HistogramVec("route_seconds", "latency by route", "route", nil)
	vec.With("get_metrics").Observe(0.001)
	r.SetConstLabels(map[string]string{"role": "primary", "ring_epoch": "42"})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	parseTypes(t, out)
	for _, line := range []string{
		`flows_total{ring_epoch="42",role="primary"} 5`,
		`routed_flows_total{ring_epoch="42",role="primary",shard="0"} 2`,
		`routed_flows_total{ring_epoch="42",role="primary",shard="1"} 9`,
		`fsync_seconds_count{ring_epoch="42",role="primary"} 1`,
		`route_seconds_count{ring_epoch="42",role="primary",route="get_metrics"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
	// Clearing restores bare samples; the vec's counts live on its
	// handles either way.
	r.SetConstLabels(nil)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flows_total 5") {
		t.Fatalf("const labels not cleared:\n%s", buf.String())
	}
	if cv.With("0").Value() != 2 || cv.With("1").Value() != 9 {
		t.Fatalf("counter vec = %d/%d, want 2/9", cv.With("0").Value(), cv.With("1").Value())
	}
	if _, ok := r.Snapshot()["routed_flows_total"]; ok {
		t.Fatal("Snapshot carries a vec family")
	}
}

// parseTypes parses an exposition, failing the test on an error, and
// maps each family to its declared type.
func parseTypes(t *testing.T, text string) map[string]string {
	t.Helper()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	types := make(map[string]string, len(fams))
	for _, f := range fams {
		types[f.Name] = f.Type
	}
	return types
}

// TestValidateExpositionRejectsGarbage: ParseExposition, the one reader
// of exposition bytes, refuses malformed lines and accepts the
// grammar's corner cases.
func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range rejectedLines {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// Valid corner cases.
	for _, good := range []string{
		"name 3.5e-7",
		"name{a=\"with } brace\",b=\"x\"} 1",
		"name 3 1700000000000",
		"# HELP name some help text",
		"",
	} {
		if _, err := ParseExposition(strings.NewReader(good)); err != nil {
			t.Fatalf("rejected %q: %v", good, err)
		}
	}
}

// rejectedLines are expositions ParseExposition must refuse; the fuzz
// target starts from them too.
var rejectedLines = []string{
	"no_value_here",
	"name{unclosed=\"x\" 3",
	"name not-a-number",
	"# TYPE x sometype",
	"# BOGUS x y",
	"1leading_digit 3",
	"name 3 not-a-timestamp",
	"name 3 17 18",
	"name{a=x} 3",
	"name{1a=\"x\"} 3",
	"name{a=\"x\" b=\"y\"} 3",
	"#HELP name text",
	"# TYPE x counter\n# TYPE x gauge",
	"x 1\n# TYPE x counter",
}

// TestFamilyHistogramFoldsVec: folding a parsed histogram vec gives the
// snapshot of one histogram that saw every observation, so its quantiles
// are the family-wide ones; Totals sums a counter vec and skips
// histograms; Label reads one pair of a sample's block.
func TestFamilyHistogramFoldsVec(t *testing.T) {
	r := NewRegistry()
	r.SetConstLabels(map[string]string{"role": "router"})
	vec := r.HistogramVec("route_seconds", "latency by route", "route", nil)
	cv := r.CounterVec("routed_total", "routed by shard", "shard")
	all := NewHistogram(nil)
	for i, v := range []float64{0.0001, 0.002, 0.002, 0.03, 0.5, 1e-7, 400} {
		vec.With([]string{"a", "b", "c"}[i%3]).Observe(v)
		all.Observe(v)
		cv.With([]string{"0", "1"}[i%2]).Inc()
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got HistSnapshot
	for _, f := range fams {
		if f.Name == "route_seconds" {
			got = f.Histogram()
			if l := f.Samples[0].Label("role"); l != "router" {
				t.Fatalf("Label(role) = %q", l)
			}
		}
	}
	want := all.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || fmt.Sprint(got.Counts) != fmt.Sprint(want.Counts) ||
		fmt.Sprint(got.Bounds) != fmt.Sprint(want.Bounds) {
		t.Fatalf("folded = %+v\nwant     %+v", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%.2f = %v, want %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
	totals := Totals(fams)
	if totals["routed_total"] != 7 {
		t.Fatalf("Totals = %v", totals)
	}
	if _, ok := totals["route_seconds"]; ok {
		t.Fatal("Totals carries a histogram")
	}
}
