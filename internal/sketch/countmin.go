// Package sketch implements the paper's §VI scalability substrate: the
// Count-Min sketch [3] for approximating edge weights, the
// Flajolet-Martin probabilistic counter [7] for approximating node
// in-degrees, and semi-streaming signature extractors that combine them
// to compute approximate Top Talkers and Unexpected Talkers signatures
// from a single pass over an edge stream, keeping only per-node constant
// state (the semi-streaming model of graph stream processing [19]).
package sketch

import (
	"fmt"
	"math"
)

// CountMin is a Count-Min sketch over uint64 keys: a depth×width counter
// matrix with pairwise-independent row hashes. Point queries return an
// overestimate with error ≤ ε·N with probability ≥ 1−δ for
// width = ⌈e/ε⌉ and depth = ⌈ln 1/δ⌉.
type CountMin struct {
	depth  int
	width  int
	counts []float64 // depth*width, row-major
	seeds  []uint64
	total  float64
}

// NewCountMin builds a sketch with the given depth and width.
func NewCountMin(depth, width int) (*CountMin, error) {
	if err := checkSize(depth, width); err != nil {
		return nil, err
	}
	cm := &CountMin{
		depth:  depth,
		width:  width,
		counts: make([]float64, depth*width),
		seeds:  make([]uint64, depth),
	}
	s := uint64(0x9E3779B97F4A7C15)
	for i := range cm.seeds {
		s = splitmix64(s)
		cm.seeds[i] = s
	}
	return cm, nil
}

func checkSize(depth, width int) error {
	if depth <= 0 || width <= 0 {
		return fmt.Errorf("sketch: CountMin requires positive depth and width, got %d×%d", depth, width)
	}
	return nil
}

// NewCountMinForError sizes the sketch from accuracy targets:
// estimates exceed truth by at most eps·(total count) with probability
// at least 1−delta.
func NewCountMinForError(eps, delta float64) (*CountMin, error) {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: CountMin accuracy targets must lie in (0,1), got eps=%g delta=%g", eps, delta)
	}
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(depth, width)
}

// Add increases the count of key by delta (delta must be positive for
// the Count-Min guarantee to hold).
func (cm *CountMin) Add(key uint64, delta float64) {
	for d := 0; d < cm.depth; d++ {
		cm.counts[d*cm.width+cm.cell(d, key)] += delta
	}
	cm.total += delta
}

// Estimate returns the point-query estimate for key: the minimum over
// rows, never less than the true count.
func (cm *CountMin) Estimate(key uint64) float64 {
	est := math.Inf(1)
	for d := 0; d < cm.depth; d++ {
		if c := cm.counts[d*cm.width+cm.cell(d, key)]; c < est {
			est = c
		}
	}
	return est
}

// Total reports the total count added.
func (cm *CountMin) Total() float64 { return cm.total }

// Width and Depth report the sketch dimensions.
func (cm *CountMin) Width() int { return cm.width }

// Depth reports the number of hash rows.
func (cm *CountMin) Depth() int { return cm.depth }

func (cm *CountMin) cell(d int, key uint64) int {
	h := splitmix64(key ^ cm.seeds[d])
	return int(h % uint64(cm.width))
}

// splitmix64 is the SplitMix64 finalizer, a fast high-quality 64-bit
// mixer used as the hash family for both sketches.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
