package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	for i := 0; i < 10; i++ {
		x := tr.Start(fmt.Sprintf("op-%d", i))
		x.Span("step")()
		x.Finish()
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(recent))
	}
	// Newest first; capacity evicts oldest, so ops 9..6 survive.
	for i, want := range []string{"op-9", "op-8", "op-7", "op-6"} {
		if recent[i].Name != want {
			t.Fatalf("recent[%d] = %q, want %q (%v)", i, recent[i].Name, want, recent)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].Name != "op-9" || got[1].Name != "op-8" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	ids := make(map[string]bool)
	for _, snap := range recent {
		if len(snap.ID) != 16 {
			t.Fatalf("trace ID %q not 16 hex chars", snap.ID)
		}
		ids[snap.ID] = true
	}
	if len(ids) != 4 {
		t.Fatalf("trace IDs not unique: %v", ids)
	}
}

func TestTraceSpansRecorded(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	x := tr.Start("ingest")
	end := x.Span("wal.append")
	time.Sleep(2 * time.Millisecond)
	end()
	x.Span("window.close")()
	began := time.Now()
	x.Record("window.extract", began.Add(-time.Millisecond), began)
	x.Finish()
	snap := tr.Recent(1)[0]
	if snap.Name != "ingest" || len(snap.Spans) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Spans[0].Name != "wal.append" || snap.Spans[0].DurationMicros < 2000 {
		t.Fatalf("span 0 = %+v", snap.Spans[0])
	}
	if snap.Spans[1].OffsetMicros < snap.Spans[0].DurationMicros {
		t.Fatalf("span 1 offset %d before span 0 ended (%d)",
			snap.Spans[1].OffsetMicros, snap.Spans[0].DurationMicros)
	}
	if snap.DurationMicros < snap.Spans[0].DurationMicros {
		t.Fatalf("trace shorter than its span: %+v", snap)
	}
	// A recorded span keeps the interval it was given.
	if sp := snap.Spans[2]; sp.Name != "window.extract" || sp.DurationMicros != 1000 || sp.OffsetMicros+1000 != began.Sub(snap.Start).Microseconds() {
		t.Fatalf("recorded span = %+v, want 1 000 µs ending %d µs in", sp, began.Sub(snap.Start).Microseconds())
	}
}

// TestSlowSpanLogsExactlyOnce: a span at or over the threshold emits
// one structured log line carrying the trace ID; fast spans emit none.
func TestSlowSpanLogsExactlyOnce(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(8, 5*time.Millisecond, logger)

	x := tr.Start("search")
	x.Span("fast")() // well under threshold
	end := x.Span("scan")
	time.Sleep(10 * time.Millisecond)
	end()
	x.Finish()

	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 1 {
		t.Fatalf("slow span logged %d lines, want 1:\n%s", lines, out)
	}
	if !strings.Contains(out, "slow operation") ||
		!strings.Contains(out, "trace="+x.ID()) ||
		!strings.Contains(out, "span=scan") {
		t.Fatalf("slow-op line missing fields:\n%s", out)
	}
	snap := tr.Recent(1)[0]
	if !snap.Slow {
		t.Fatal("trace not marked slow")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	x := tr.Start("anything")
	x.Span("child")()
	x.Finish()
	if x.ID() != "" || tr.Recent(5) != nil || tr.Total() != 0 {
		t.Fatal("nil tracer recorded something")
	}
}
