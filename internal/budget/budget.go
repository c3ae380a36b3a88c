// Package budget is what the allocation-budget tests share: whether the
// build can hold a budget at all, and a measurement with bytes in it.
//
// Under -race the runtime deliberately drops sync.Pool puts to widen
// interleaving coverage, so pooled-scratch reuse — and with it every
// budget that rests on it — does not hold; those tests skip when
// RaceEnabled and run under `make alloc-budget`.
package budget

import (
	"math"
	"runtime"
	"testing"
)

// SkipUnderRace skips a test whose budget rests on pooled scratch.
func SkipUnderRace(tb testing.TB) {
	if RaceEnabled {
		tb.Skip("the race detector drops sync.Pool puts, defeating scratch reuse")
	}
}

// PerRun is testing.AllocsPerRun with the bytes beside the count: the
// fewest allocations and the fewest bytes any one call of f made over
// runs calls, after one warm-up call, on one P. The counts are the whole
// process's, so a goroutine an earlier test left running adds to the
// call it overlaps; the minimum drops that, where a mean spread it over
// every call.
func PerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for i := 0; i < runs; i++ {
		a, b := Once(f)
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	return allocs, bytes
}

// Once is the allocations and bytes of a single call of f, for a step
// that cannot simply be repeated.
func Once(f func()) (allocs, bytes float64) { return OnceOn(1, f) }

// OnceOn is Once on procs Ps, for a step that splits its work when it
// has more than one: what its goroutines allocate counts too.
func OnceOn(procs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
