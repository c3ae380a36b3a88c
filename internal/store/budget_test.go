package store

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"graphsig/internal/budget"
	"graphsig/internal/core"
)

// coldSearchBudget is what one label search four cold windows deep may
// allocate: the hits, the file handles, the Blocks — not the blocks'
// bytes, which are 286 KB a window at 1 200 sources.
const coldSearchBudget = 16 << 10

// TestColdSearchBudget: a cold label search reads its blocks into
// scratch the search before it gave back, so what it allocates does not
// grow with the windows it reads.
func TestColdSearchBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	perSearch := func(hosts int) (allocs, bytes float64) {
		s := wideStore(t, 4, 8, hosts)
		return budget.PerRun(20, func() {
			if hits, err := s.SearchLabel(core.Jaccard{}, "host-00042", SearchOptions{TopK: 10}); err != nil || len(hits) != 10 {
				t.Fatalf("%d hits, %v", len(hits), err)
			}
		})
	}
	for _, hosts := range []int{100, 1200} {
		if allocs, bytes := perSearch(hosts); allocs > 64 || bytes > coldSearchBudget {
			t.Errorf("a cold search over 4x%d allocates %.0f times, %.0f bytes; budget 64 and %d", hosts, allocs, bytes, coldSearchBudget)
		} else {
			t.Logf("4x%d: %.0f allocations, %.0f bytes", hosts, allocs, bytes)
		}
	}
}

// TestFailedColdSearchBudget: a search that reads the newest cold
// windows and then meets a rotten one gives back the blocks it had read —
// the next search, and the next failure, find the scratch in the pool.
func TestFailedColdSearchBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	s := wideStore(t, 4, 8, 1200)
	// One file per eviction: rot the oldest, which a search reads last.
	segs, _ := s.tierSegsLocked()
	rotFile(t, segs[0].Path())
	sig, _, _ := s.LatestSignature("host-00042")
	_, bytes := budget.PerRun(10, func() {
		if _, err := s.Search(core.Jaccard{}, sig, SearchOptions{}); !errors.Is(err, ErrColdRead) {
			t.Fatalf("search over a rotten window: %v", err)
		}
	})
	if bytes > coldSearchBudget {
		t.Errorf("a failed cold search allocates %.0f bytes, budget %d", bytes, coldSearchBudget)
	}
}

// TestColdSearchSoakBudget runs the store the way a node lives — a
// window archived, one evicted to a segment file and one pruned, hot and
// cold label searches in between — under a memory limit twice what the
// process holds when it starts, so that garbage, if reads made any,
// would have the collector running beside every search. Cold searches
// must cost at the end what they cost at the start: p99 over the last
// third of the run within soakFactor of the first third's, and bytes
// per cold search inside coldSearchBudget throughout. A search is timed
// by the CPU time of the thread it runs on, the test's goroutine locked
// to it, so that other processes' load on the host, which a wall clock
// would count, stays out of the p99 (threadCPU). The limit is this
// test's instrument, set and restored here; nothing ships one.
func TestColdSearchSoakBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const (
		hosts, hot, cold = 400, 8, 4
		windows          = 36 // three thirds of twelve
		searches         = 30 // hot and cold, per window
		soakFactor       = 4.0
	)
	s, more := wideStoreAndMore(t, Config{SegmentRetain: cold}, cold, hot, hosts)
	search := func(depth, i int) {
		label := fmt.Sprintf("host-%05d", i*37%hosts)
		if hits, err := s.SearchLabel(core.Jaccard{}, label, SearchOptions{TopK: 10, LastWindows: depth}); err != nil || len(hits) != 10 {
			t.Fatalf("%s over %d windows: %d hits, %v", label, depth, len(hits), err)
		}
	}
	search(hot+cold, 0) // grow the scratch before the heap is sized up

	runtime.GC()
	debug.FreeOSMemory()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(2 * int64(held.Sys-held.HeapReleased)))

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var thirds [3][]time.Duration
	for w := 0; w < windows; w++ {
		more()
		for i := 0; i < searches; i++ {
			search(hot, w*searches+i)
		}
		timed := func(i int) {
			t0 := threadCPU(t)
			search(hot+cold, w*searches+i)
			thirds[3*w/windows] = append(thirds[3*w/windows], threadCPU(t)-t0)
		}
		// The close's own garbage may have had the pool collected: the
		// first cold search after it is on the clock but not the scales.
		timed(0)
		_, bytes := budget.Once(func() {
			for i := 1; i < searches; i++ {
				timed(i)
			}
		})
		if perSearch := bytes / (searches - 1); perSearch > coldSearchBudget {
			t.Fatalf("window %d: a cold search allocates %.0f bytes, budget %d", w, perSearch, coldSearchBudget)
		}
	}
	p99 := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)*99/100]
	}
	first, last := p99(thirds[0]), p99(thirds[2])
	t.Logf("cold search p99 (thread CPU): %v over the first %d, %v over the last %d", first, len(thirds[0]), last, len(thirds[2]))
	if float64(last) > soakFactor*float64(first) {
		t.Errorf("cold search p99 went from %v to %v over %d windows, more than %vx", first, last, windows, soakFactor)
	}
}
