package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"graphsig/internal/datagen"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/sketch"
)

// TestRunGoldenSignatures pins the bits of every signature Run extracts
// from datagen.DefaultEnterpriseConfig(7) — labels, order and the
// math.Float64bits of each weight, hashed — for both schemes under four
// sketch shapes: sigserverd's default (every source stays under the
// candidate bound), a 16×2 sketch whose rows collide, a bound of 4 that
// evicts on almost every source, and an 8×2 sketch with a bound of 12
// where both happen. The 4096×5/256 and 64×3/4 hashes were recorded at
// the commit before per-source state became sparse-until-dense (PR 23)
// and have not changed since: they hold the dense path to that commit's
// arithmetic, cell by cell, and show that at the default size no cell
// ever differed from the exact sum. The 16×2/256 and 8×2/12 rows were
// re-recorded when a sparse source's signature became exact (PR 27) —
// their sparse sources used to read through colliding cells — which is
// why 16×2/256, every source sparse, now hashes as 4096×5/256 does. The
// sparse/dense split of each run is the property PR 23 exists for.
func TestRunGoldenSignatures(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(7)
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		scheme        string
		sk            sketch.StreamConfig
		hash          uint64
		sparse, dense int64
	}{
		{"tt", sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1}, 0xff193458c0329e20, 1800, 0},
		{"tt", sketch.StreamConfig{Width: 16, Depth: 2, Candidates: 256, Seed: 1}, 0xff193458c0329e20, 1800, 0},
		{"tt", sketch.StreamConfig{Width: 64, Depth: 3, Candidates: 4, Seed: 1}, 0xd9cee39b611479a2, 0, 1800},
		{"tt", sketch.StreamConfig{Width: 8, Depth: 2, Candidates: 12, Seed: 1}, 0x29924a748e29cff9, 5, 1795},
		{"ut", sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1}, 0xf901d11a140eaf7c, 1800, 0},
		{"ut", sketch.StreamConfig{Width: 16, Depth: 2, Candidates: 256, Seed: 1}, 0xf901d11a140eaf7c, 1800, 0},
		{"ut", sketch.StreamConfig{Width: 64, Depth: 3, Candidates: 4, Seed: 1}, 0x12c716d621752ce6, 0, 1800},
		{"ut", sketch.StreamConfig{Width: 8, Depth: 2, Candidates: 12, Seed: 1}, 0x875fa7a06ba5f8eb, 5, 1795},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%dx%d/%d", c.scheme, c.sk.Width, c.sk.Depth, c.sk.Candidates)
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			u := graph.NewUniverse()
			sets, err := Run(Config{
				WindowSize: gcfg.WindowLength,
				Origin:     gcfg.Origin,
				Classify:   datagen.LocalClassifier,
				TCPOnly:    true,
				K:          10,
				Scheme:     c.scheme,
				Sketch:     c.sk,
				Registry:   reg,
			}, u, data.Records)
			if err != nil {
				t.Fatal(err)
			}
			if len(sets) != gcfg.Windows {
				t.Fatalf("%d windows, want %d", len(sets), gcfg.Windows)
			}
			h := fnv.New64a()
			var word [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(word[:], v)
				h.Write(word[:])
			}
			for _, set := range sets {
				put(uint64(set.Window))
				put(uint64(set.Len()))
				for i, v := range set.Sources {
					h.Write([]byte(u.Label(v)))
					put(uint64(set.Sigs[i].Len()))
					for j, n := range set.Sigs[i].Nodes {
						h.Write([]byte(u.Label(n)))
						put(math.Float64bits(set.Sigs[i].Weights[j]))
					}
				}
			}
			snap := reg.Snapshot()
			sparse, dense := snap["pipeline_sources_sparse_total"], snap["pipeline_sources_dense_total"]
			if h.Sum64() != c.hash || sparse != c.sparse || dense != c.dense {
				t.Fatalf("hash %#x, %d sources closed sparse, %d dense; want %#x, %d, %d",
					h.Sum64(), sparse, dense, c.hash, c.sparse, c.dense)
			}
		})
	}
}
