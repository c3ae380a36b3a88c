package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/sketch"
)

// BenchmarkPipelineWindow is one window of the `wide` serving shape
// (bench/README.md) through the pipeline alone: 1 200 local hosts over
// 9 600 externals at sigserverd's default sketch (4096×5, 256
// candidates), ingested record by record and closed.
//
// sparse is datagen's window: no source outgrows the candidate bound —
// the busiest makes some 120 observations — so it prices what a source
// costs while it is the log of what it did, and its close reads every
// signature exactly. dense is the same hosts with a Zipf out-degree
// (host r makes 24 000/r observations, at least 8): the 93 at the head
// outgrow the bound and close through their sketches, as §VI has it,
// the tail stays sparse. Both report dense-sources/op.
func BenchmarkPipelineWindow(b *testing.B) {
	gcfg := datagen.DefaultEnterpriseConfig(1)
	gcfg.LocalHosts = 1200
	gcfg.ExternalHosts = 9600
	gcfg.Windows = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		records []netflow.Record
	}{
		{"sparse", data.Records},
		{"dense", zipfWindow(gcfg)},
	} {
		b.Run(in.name, func(b *testing.B) {
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
				sets, err := Run(cfg, nil, in.records)
				if err != nil || len(sets) != 1 || sets[0].Len() != gcfg.LocalHosts {
					b.Fatalf("Run: %d windows, err %v", len(sets), err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(in.records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			snap := reg.Snapshot()
			b.ReportMetric(float64(snap["pipeline_sources_dense_total"])/float64(b.N), "dense-sources/op")
		})
	}
}

// zipfWindow is one window of gcfg's hosts in which host r (from 1)
// makes max(8, 24 000/r) single-session observations, each of a
// destination drawn with a skew of its own, in time order.
func zipfWindow(gcfg datagen.EnterpriseConfig) []netflow.Record {
	rng := rand.New(rand.NewSource(gcfg.Seed))
	var srcs []int
	for h := 0; h < gcfg.LocalHosts; h++ {
		for n := max(8, 24000/(h+1)); n > 0; n-- {
			srcs = append(srcs, h)
		}
	}
	rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	step := gcfg.WindowLength / time.Duration(len(srcs)+1)
	records := make([]netflow.Record, len(srcs))
	for i, h := range srcs {
		dst := rand.NewZipf(rng, 1.2, 8, uint64(gcfg.ExternalHosts-1)).Uint64()
		records[i] = netflow.Record{
			Src:      fmt.Sprintf("10.0.%d.%d", h/250, h%250),
			Dst:      fmt.Sprintf("198.18.%d.%d", (int(dst)+7*h)%gcfg.ExternalHosts/250, (int(dst)+7*h)%gcfg.ExternalHosts%250),
			Start:    gcfg.Origin.Add(time.Duration(i) * step),
			Duration: time.Second, Sessions: 1, Bytes: 100, Packets: 1, Proto: netflow.TCP,
		}
	}
	return records
}
