package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/server"
)

// BenchmarkRoutedLabelSearch times single routed label searches on a
// router over two loopback shards fed 400 local hosts × 6 windows, in
// two draws. repeat searches the labels again and again within one
// window, as a reader returning to the same hosts does. scan searches
// every label once between two window closes, as the masquerade and
// multiusage scans of the paper's §V do, so no search finds the window
// it asks of in the router's cache. Each reports the p50 of a search in
// µs, the shard calls a search made, and the share of searches the
// router's cache answered (search_label_resolves_total).
func BenchmarkRoutedLabelSearch(b *testing.B) {
	gcfg := datagen.DefaultEnterpriseConfig(7)
	gcfg.LocalHosts = 400
	gcfg.ExternalHosts = 4000
	labels := make([]string, gcfg.LocalHosts)
	for i := range labels {
		labels[i] = datagen.LocalLabel(i)
	}
	for _, scan := range []bool{false, true} {
		name := "repeat"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			w := newLabelWorld(b, gcfg)
			search := func(label string) {
				if _, err := w.rt.Search(context.Background(), server.SearchRequest{Label: label, K: 10}); err != nil {
					b.Fatal(err)
				}
			}
			if !scan {
				for _, label := range labels {
					search(label)
				}
			}
			calls, hits := w.shardCalls(), w.resolves(b)["hit"]
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if scan && i%len(labels) == 0 {
					b.StopTimer()
					w.closeNext(b, false)
					b.StartTimer()
				}
				begin := time.Now()
				search(labels[i%len(labels)])
				lat = append(lat, time.Since(begin))
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs")
			b.ReportMetric(float64(w.shardCalls()-calls)/float64(b.N), "calls/search")
			b.ReportMetric((w.resolves(b)["hit"]-hits)/float64(b.N), "hits/search")
		})
	}
}
