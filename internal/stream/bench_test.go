package stream

import (
	"testing"

	"graphsig/internal/datagen"
	"graphsig/internal/obs"
	"graphsig/internal/sketch"
)

// BenchmarkPipelineWindow is one window of the `wide` serving shape
// (bench/README.md) through the pipeline alone: 1 200 local hosts over
// 9 600 externals at sigserverd's default sketch (4096×5, 256
// candidates), ingested record by record and closed. No source of this
// input outgrows the candidate bound — the busiest makes some 120
// observations — so it prices what a source costs while it is sparse;
// BenchmarkStreamTTObserve (repository root) is the dense side.
func BenchmarkPipelineWindow(b *testing.B) {
	gcfg := datagen.DefaultEnterpriseConfig(1)
	gcfg.LocalHosts = 1200
	gcfg.ExternalHosts = 9600
	gcfg.Windows = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{
		WindowSize: gcfg.WindowLength,
		Origin:     gcfg.Origin,
		Classify:   datagen.LocalClassifier,
		TCPOnly:    true,
		K:          10,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1},
		Registry:   reg,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets, err := Run(cfg, nil, data.Records)
		if err != nil || len(sets) != 1 || sets[0].Len() != gcfg.LocalHosts {
			b.Fatalf("Run: %d windows, err %v", len(sets), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(data.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	snap := reg.Snapshot()
	b.ReportMetric(float64(snap["pipeline_sources_dense_total"])/float64(b.N), "dense-sources/op")
}
