package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- trace context propagation ---

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: "abc123", SpanID: "span0000000001"},
		{TraceID: "seq-000000000042", SpanID: "span0000000007"}, // dashed trace ID
	}
	for _, tc := range cases {
		got := ParseTraceContext(tc.String())
		if got != tc {
			t.Errorf("round trip %q: got %+v, want %+v", tc.String(), got, tc)
		}
	}
	for _, bad := range []string{"", "nodash", "-leading", "trailing-"} {
		if got := ParseTraceContext(bad); got.Valid() {
			t.Errorf("ParseTraceContext(%q) = %+v, want invalid", bad, got)
		}
	}
	// The split is on the LAST dash, so a dashed fallback trace ID
	// keeps its dash on the trace side.
	got := ParseTraceContext("seq-000000000001-span42")
	if got.TraceID != "seq-000000000001" || got.SpanID != "span42" {
		t.Errorf("last-dash split: got %+v", got)
	}
}

func TestStartRemoteAdoptsContext(t *testing.T) {
	router := NewTracer(8, 0, nil)
	shard := NewTracer(8, 0, nil)

	tr := router.Start("route.search")
	end, tc := tr.SpanWith("search.shard0")
	if !tc.Valid() {
		t.Fatalf("SpanWith returned invalid context %+v", tc)
	}
	if tc.TraceID != tr.ID() {
		t.Fatalf("SpanWith trace ID %q != trace ID %q", tc.TraceID, tr.ID())
	}

	remote := shard.StartRemote("search", tc)
	if remote.ID() != tr.ID() {
		t.Fatalf("StartRemote trace ID %q, want adopted %q", remote.ID(), tr.ID())
	}
	endSpan := remote.Span("store.search")
	endSpan()
	remote.Finish()
	end()
	tr.Finish()

	snap, ok := shard.Find(tr.ID())
	if !ok {
		t.Fatalf("shard ring has no trace %q", tr.ID())
	}
	if snap.ParentSpanID != tc.SpanID {
		t.Errorf("remote segment parent span = %q, want %q", snap.ParentSpanID, tc.SpanID)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "store.search" {
		t.Errorf("remote segment spans = %+v, want one store.search span", snap.Spans)
	}
	// An invalid inbound context degrades to a fresh local trace.
	fresh := shard.StartRemote("search", TraceContext{})
	if fresh.ID() == tr.ID() || fresh.ID() == "" {
		t.Errorf("StartRemote with invalid context reused/empty ID %q", fresh.ID())
	}
	fresh.Finish()
}

// --- exposition parsing ---

func TestParseExpositionAttachesHistogramSeries(t *testing.T) {
	reg := NewRegistry()
	reg.SetConstLabels(map[string]string{"shard": "0", "role": "primary"})
	reg.Counter("flows_received", "flows accepted").Add(7)
	h := reg.HistogramWith("search_seconds", "search latency", CountBounds(4))
	h.Observe(1)
	h.Observe(3)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	c, ok := byName["flows_received"]
	if !ok || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 7 {
		t.Fatalf("flows_received family = %+v", c)
	}
	hist, ok := byName["search_seconds"]
	if !ok || hist.Type != "histogram" {
		t.Fatalf("search_seconds family missing or mistyped: %+v", hist)
	}
	// _bucket/_sum/_count must fold into the base family, not appear
	// as three separate families.
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if _, stray := byName["search_seconds"+suffix]; stray {
			t.Errorf("series %q parsed as its own family", "search_seconds"+suffix)
		}
	}
	// 4 bounds + Inf buckets, plus _sum and _count.
	if len(hist.Samples) != 7 {
		t.Errorf("search_seconds samples = %d, want 7: %+v", len(hist.Samples), hist.Samples)
	}
}

// federateSamples parses a federated exposition and indexes every
// sample by name plus rendered label set.
func federateSamples(t *testing.T, nodes []NodeExposition) (string, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFederated(&buf, nodes); err != nil {
		t.Fatalf("WriteFederated: %v", err)
	}
	out := buf.String()
	fams, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("reparsing federated output: %v", err)
	}
	samples := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			samples[s.Name+"{"+s.Labels+"}"] = s.Value
		}
	}
	return out, samples
}

func nodeExposition(t *testing.T, reg *Registry, identity ...Label) NodeExposition {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return NodeExposition{Labels: identity, Families: fams}
}

func TestWriteFederatedCounterSums(t *testing.T) {
	regA := NewRegistry()
	regA.SetConstLabels(map[string]string{"shard": "0", "role": "primary"})
	regA.Counter("flows_received", "flows accepted").Add(11)
	regA.Gauge("store_windows", "resident windows").Set(3)

	regB := NewRegistry()
	regB.SetConstLabels(map[string]string{"shard": "1", "role": "primary"})
	regB.Counter("flows_received", "flows accepted").Add(31)
	regB.Gauge("store_windows", "resident windows").Set(5)

	nodes := []NodeExposition{
		nodeExposition(t, regA, Label{Name: "instance", Value: "s0/primary"}),
		nodeExposition(t, regB, Label{Name: "instance", Value: "s1/primary"}),
	}
	out, samples := federateSamples(t, nodes)

	if got := samples[`flows_received{instance="cluster"}`]; got != 42 {
		t.Errorf("cluster flows_received = %v, want 42\n%s", got, out)
	}
	// Per-node series survive with identity labels injected.
	if got := samples[`flows_received{instance="s0/primary",role="primary",shard="0"}`]; got != 11 {
		t.Errorf("shard-0 flows_received = %v, want 11\n%s", got, out)
	}
	// Gauges are never summed into a cluster aggregate.
	for key := range samples {
		if strings.HasPrefix(key, "store_windows{") && strings.Contains(key, `instance="cluster"`) {
			t.Errorf("gauge aggregated into cluster series: %s\n%s", key, out)
		}
	}
}

// TestFederatedHistogramMergeLossless splits one observation stream
// randomly across two nodes' histograms (identical log bounds) and
// asserts the federated instance="cluster" series are numerically
// identical to a single histogram that observed the whole stream:
// per-le cumulative bucket counts, _sum, and _count all match exactly.
// Integer-valued observations keep the float sums order-independent,
// so equality is exact, not approximate.
func TestFederatedHistogramMergeLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bounds := CountBounds(8)

	regA := NewRegistry()
	regA.SetConstLabels(map[string]string{"shard": "0"})
	hA := regA.HistogramWith("search_probes", "probes per search", bounds)
	regB := NewRegistry()
	regB.SetConstLabels(map[string]string{"shard": "1"})
	hB := regB.HistogramWith("search_probes", "probes per search", bounds)
	combined := NewHistogram(bounds)

	for i := 0; i < 500; i++ {
		v := float64(rng.Intn(300)) // covers every bucket incl. +Inf
		combined.Observe(v)
		if rng.Intn(2) == 0 {
			hA.Observe(v)
		} else {
			hB.Observe(v)
		}
	}

	nodes := []NodeExposition{
		nodeExposition(t, regA, Label{Name: "instance", Value: "s0/primary"}),
		nodeExposition(t, regB, Label{Name: "instance", Value: "s1/primary"}),
	}
	out, samples := federateSamples(t, nodes)

	snap := combined.Snapshot()
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatFloat(snap.Bounds[i])
		}
		key := fmt.Sprintf(`search_probes_bucket{instance="cluster",le=%q}`, le)
		if got, ok := samples[key]; !ok || got != float64(cum) {
			t.Errorf("bucket le=%s: federated %v (present=%v), want %d\n%s", le, got, ok, cum, out)
		}
	}
	if got := samples[`search_probes_sum{instance="cluster"}`]; got != snap.Sum {
		t.Errorf("federated _sum = %v, want %v", got, snap.Sum)
	}
	if got := samples[`search_probes_count{instance="cluster"}`]; got != float64(snap.Count) {
		t.Errorf("federated _count = %v, want %d", got, snap.Count)
	}
}
