package eval

import (
	"testing"

	"graphsig/internal/core"
)

// BenchmarkSelfRetrievalAUC is the §IV-C statistic at the end-to-end
// benchmark's analytics size: 2 000 sources of one window ranked
// against the 2 000 of the next under the Jaccard distance.
func BenchmarkSelfRetrievalAUC(b *testing.B) {
	at, next := enterpriseSets(b, 2000, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelfRetrievalAUC(core.Jaccard{}, at, next); err != nil {
			b.Fatal(err)
		}
	}
}
