package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary bytes to ParseExposition, the
// parser the router runs over shard bodies during federation. It must
// not panic, and whatever it accepts must survive a WriteFederated
// re-render: the output parses again to the same family names and
// types, in the same order.
func FuzzParseExposition(f *testing.F) {
	reg := NewRegistry()
	reg.SetConstLabels(map[string]string{"role": "primary", "shard": "0"})
	reg.Counter("flows_received", "records arriving").Add(3)
	reg.GaugeVec("replica_lag_bytes", "lag by shard", "shard").With("1").Set(9)
	reg.HistogramVec("http_route_seconds", "latency by route", "route", CountBounds(2)).With("get_metrics").Observe(0.5)
	var own bytes.Buffer
	if err := reg.WritePrometheus(&own); err != nil {
		f.Fatal(err)
	}
	f.Add(own.String())
	fams, err := ParseExposition(bytes.NewReader(own.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	var federated bytes.Buffer
	if err := WriteFederated(&federated, []NodeExposition{{Labels: []Label{{Name: "instance", Value: "s0"}}, Families: fams}}); err != nil {
		f.Fatal(err)
	}
	f.Add(federated.String())
	for _, bad := range rejectedLines {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		node := NodeExposition{Labels: []Label{{Name: "instance", Value: "n"}}, Families: fams}
		if err := WriteFederated(&out, []NodeExposition{node}); err != nil {
			t.Fatalf("accepted input does not re-render: %v\n%q", err, text)
		}
		again, err := ParseExposition(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-rendered exposition does not parse: %v\ninput %q\noutput %q", err, text, out.String())
		}
		if len(again) != len(fams) {
			t.Fatalf("%d families re-parse as %d\ninput %q\noutput %q", len(fams), len(again), text, out.String())
		}
		for i := range fams {
			if again[i].Name != fams[i].Name || again[i].Type != fams[i].Type {
				t.Fatalf("family %d %s/%s re-parses as %s/%s\ninput %q\noutput %q",
					i, fams[i].Name, fams[i].Type, again[i].Name, again[i].Type, text, out.String())
			}
		}
	})
}
