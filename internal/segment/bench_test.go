package segment

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// benchSet is one window the size the end-to-end benchmark's `wide`
// workload closes: 1200 local sources with k=10 signatures drawn from
// 8800 external hosts, about 10 000 labels in all.
func benchSet(tb testing.TB, u *graph.Universe, window int) *core.SignatureSet {
	tb.Helper()
	const sources, externals, k = 1200, 8800, 10
	rng := rand.New(rand.NewSource(int64(window) + 1))
	ext := make([]graph.NodeID, externals)
	for i := range ext {
		ext[i] = u.MustIntern(fmt.Sprintf("198.18.%d.%d", i/250, i%250), graph.Part2)
	}
	srcs := make([]graph.NodeID, sources)
	sigs := make([]core.Signature, sources)
	for i := range srcs {
		srcs[i] = u.MustIntern(fmt.Sprintf("10.0.%d.%d", i/250, i%250), graph.Part1)
		weights := make(map[graph.NodeID]float64, k)
		for len(weights) < k {
			weights[ext[rng.Intn(externals)]] = rng.Float64() + 1e-3
		}
		sigs[i] = core.FromWeights(weights, k)
	}
	set, err := core.NewSignatureSet("tt", window, srcs, sigs)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// BenchmarkSegmentWrite times one window's compaction: encode, TOC,
// stage, fsync, rename, directory fsync.
func BenchmarkSegmentWrite(b *testing.B) {
	u := graph.NewUniverse()
	sets := []*core.SignatureSet{benchSet(b, u, 0)}
	dir := b.TempDir()
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := Write(dir, sets, u)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		size = seg.Size()
		if err := os.Remove(seg.Path()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(size), "bytes/window")
}

// benchSegment writes benchSet's window and returns a handle opened as
// by a process that did not write the file.
func benchSegment(b *testing.B) *Segment {
	b.Helper()
	u := graph.NewUniverse()
	written, err := Write(b.TempDir(), []*core.SignatureSet{benchSet(b, u, 0)}, u)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := Open(written.Path(), graph.NewUniverse())
	if err != nil {
		b.Fatal(err)
	}
	return seg
}

// BenchmarkSegmentReadWindow times a cold window read whole: open the
// file, read the block, CRC, verify, decode every signature.
func BenchmarkSegmentReadWindow(b *testing.B) {
	seg := benchSegment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := seg.ReadWindow(0)
		if err != nil || set.Len() != 1200 {
			b.Fatalf("read %v: %v", set, err)
		}
	}
	b.ReportMetric(float64(seg.Size()), "bytes/window")
}

// BenchmarkSegmentReadBlock times what one cold window costs a search:
// open the file, read the block, CRC, verify in place — and, in the scan
// case, score the rows sharing a node with a query signature where they
// lie (Jaccard, bound below 1). Released is the scan case as the store
// runs it: the block given back, the next read made in its memory.
func BenchmarkSegmentReadBlock(b *testing.B) {
	seg := benchSegment(b)
	first, err := seg.ReadBlock(0)
	if err != nil {
		b.Fatal(err)
	}
	query := first.Sig(0)
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk, err := seg.ReadBlock(0)
			if err != nil || blk.Len() != 1200 {
				b.Fatalf("read %v: %v", blk, err)
			}
		}
	})
	for _, release := range []bool{false, true} {
		name := map[bool]string{false: "scan", true: "released"}[release]
		b.Run(name, func(b *testing.B) {
			rows, near := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk, err := seg.ReadBlock(0)
				if err != nil {
					b.Fatal(err)
				}
				rows = blk.Scan(core.Jaccard{}, query, 0.99, -1, func(int, float64) { near++ })
				if release {
					blk.Release()
				}
			}
			if near == 0 {
				b.Fatal("no row scored within the bound")
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
