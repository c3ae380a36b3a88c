package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance using Welford's
// algorithm, numerically stable for long streams. The zero value is
// ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Batch returns the accumulator of xs computed in two passes — the sum
// with the extremes, then the squared deviations from the mean — rather
// than by Add's running update: one division for the whole slice. Its
// Mean and M2 agree with an Add chain over xs to rounding, not to the
// bit. It is the partial Merge folds.
func Batch(xs []float64) Accumulator {
	if len(xs) == 0 {
		return Accumulator{}
	}
	sum, lo, hi := 0.0, xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean := sum / float64(len(xs))
	m2 := 0.0
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	return Accumulator{n: len(xs), mean: mean, m2: m2, min: lo, max: hi}
}

// Repeat returns the accumulator of n observations all equal to x: mean
// x and M2 0 exactly. Merged into a partial it adds a run of equal
// values — the columns a row job resolves in closed form — without the
// slice.
func Repeat(x float64, n int) Accumulator {
	if n <= 0 {
		return Accumulator{}
	}
	return Accumulator{n: n, mean: x, min: x, max: x}
}

// Merge folds the observations of b into a, as if a had also seen them:
// Chan et al.'s pairwise combine of the counts, means and M2s, with the
// extremes combined exactly. The result agrees with one Add chain over
// both streams to rounding; merging the same partials in the same order
// always gives the same bits.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	n := na + nb
	d := b.mean - a.mean
	a.mean += d * (nb / n)
	a.m2 += b.m2 + d*d*(na*nb/n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n += b.n
}

// N reports the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean reports the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance reports the population variance (0 with fewer than 2 points).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev reports the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min reports the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max reports the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Summary is a point-in-time snapshot of an Accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.mean, StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// String renders the summary as "mean±std [min,max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f±%.4f [%.4f,%.4f] (n=%d)", s.Mean, s.StdDev, s.Min, s.Max, s.N)
}

// SummarizeSlice computes a Summary over the values.
func SummarizeSlice(xs []float64) Summary {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Summarize()
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
