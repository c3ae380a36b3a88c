package server

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/budget"
	"graphsig/internal/netflow"
)

// TestIngestAndCloseBudget holds the write path to what it allocates in
// the steady state, WAL and snapshot on: a 2 000-record batch into an
// open window grows its sources' observation logs and nothing else
// (under one allocation and 128 bytes a record — the records are logged
// from where they lie), and closing that window of 200 sources costs the
// signatures, the view and the snapshot of those sources (under 6
// allocations and 1.5 KB a source; 3.9 and 1 020 bytes measured, 12.9
// and 2 560 before a sparse source's signature was read from its log
// and the checkpoint stopped re-listing the universe), not a copy of
// the ring or of the label table. The close is held to it on one P and
// on two, where it extracts in two runs (200 sources are three of the
// pipeline's minimum runs) and the store's legs run beside each other.
func TestIngestAndCloseBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const hosts, perHost = 200, 10
	srv, err := New(crashConfig(filepath.Join(t.TempDir(), "snap")))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	// Window w: every host talks to ten of 800 externals, a record a
	// millisecond. The first record of a window closes the one before.
	window := func(w int) []netflow.Record {
		out := make([]netflow.Record, hosts*perHost)
		for i := range out {
			h, at := i%hosts, time.Duration(w)*time.Hour+time.Duration(i)*time.Millisecond
			out[i] = flowAt(fmt.Sprintf("10.0.%d.%d", h/250, h%250), fmt.Sprintf("e%d", (h*7+i/hosts*13+w)%(4*hosts)), at, 1)
		}
		return out
	}
	for w := 0; w < 4; w++ {
		recs := window(w)
		var closed IngestResult
		procs := 1 + w%2
		closeAllocs, closeBytes := budget.OnceOn(procs, func() { closed = mustIngest(t, srv, recs[:1]) })
		batchAllocs, batchBytes := budget.Once(func() { mustIngest(t, srv, recs[1:]) })
		if w < 2 {
			continue // labels still being interned, buffers still growing
		}
		t.Logf("window %d: closing %d sources on %d Ps allocates %.0f times, %.0f bytes", w, hosts, procs, closeAllocs, closeBytes)
		if closed.WindowsClosed != 1 {
			t.Fatalf("window %d: its first record closed %d windows", w, closed.WindowsClosed)
		}
		if n := float64(len(recs) - 1); batchAllocs > n || batchBytes > 128*n {
			t.Errorf("window %d: a batch of %.0f records allocates %.0f times, %.0f bytes; budget %.0f and %.0f",
				w, n, batchAllocs, batchBytes, n, 128*n)
		}
		if closeAllocs > 6*hosts || closeBytes > 1536*hosts {
			t.Errorf("window %d: closing %d sources on %d Ps allocates %.0f times, %.0f bytes; budget %d and %d",
				w, hosts, procs, closeAllocs, closeBytes, 6*hosts, 1536*hosts)
		}
	}
}
