package eval

import (
	"testing"

	"graphsig/internal/budget"
	"graphsig/internal/core"
)

// TestSelfRetrievalAUCAllocsIndependentOfSources: the statistic
// allocates for the engine it builds — two views, the row and column
// lists — and nothing per source: no query, no ranking. (AllocsPerRun
// pins GOMAXPROCS to 1, so Rows runs on its pooled scratch.)
func TestSelfRetrievalAUCAllocsIndependentOfSources(t *testing.T) {
	budget.SkipUnderRace(t)
	allocs := func(hosts int) float64 {
		at, next := enterpriseSets(t, hosts, 4000)
		run := func() {
			if _, err := SelfRetrievalAUC(core.Jaccard{}, at, next); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled scratch
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(100), allocs(1600)
	if small != large {
		t.Fatalf("SelfRetrievalAUC allocations grow with the sources: %v at 100, %v at 1600", small, large)
	}
	if large > 60 {
		t.Fatalf("SelfRetrievalAUC allocates %v times", large)
	}
}
