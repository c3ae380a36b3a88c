package obs

import (
	"strings"
	"testing"
)

func TestGaugeVecSetSnapshotAndProm(t *testing.T) {
	reg := NewRegistry()
	gv := reg.GaugeVec("replica_lag_bytes", "byte lag by shard", "shard")
	gv.With("0").Set(4096)
	gv.With("1").Set(128)
	gv.With("0").Set(512) // overwrite, not accumulate

	if got := gv.With("0").Value(); got != 512 {
		t.Fatalf("shard 0 lag = %d, want 512", got)
	}
	if got := gv.With("1").Value(); got != 128 {
		t.Fatalf("shard 1 lag = %d, want 128", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		`# TYPE replica_lag_bytes gauge`,
		`replica_lag_bytes{shard="0"} 512`,
		`replica_lag_bytes{shard="1"} 128`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom)
		}
	}
	parseTypes(t, prom)
}

// TestGaugeVecReuseAndMismatch: asking for the same family again
// returns the same vector; asking with a different kind panics like the
// scalar registries do.
func TestGaugeVecReuseAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.GaugeVec("g", "help", "l")
	b := reg.GaugeVec("g", "help", "l")
	a.With("x").Set(7)
	if got := b.With("x").Value(); got != 7 {
		t.Fatalf("second handle sees %d, want 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CounterVec over a gauge family did not panic")
		}
	}()
	reg.CounterVec("g", "help", "l")
}
