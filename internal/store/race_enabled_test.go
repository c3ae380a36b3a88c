//go:build race

package store

// raceEnabled reports whether the race detector instruments this build.
// Under -race the runtime deliberately drops sync.Pool puts to widen
// interleaving coverage, so pooled-scratch reuse — and with it the
// zero-allocation contract — does not hold; the alloc-count tests skip.
const raceEnabled = true
