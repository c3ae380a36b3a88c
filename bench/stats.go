package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one phase's observations, in milliseconds for
// latencies.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pool joins the observations of several rounds so that one median is
// taken over all of them, not a median of medians.
func pool(rounds ...samples) samples {
	var out samples
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

// percentile is the p-quantile (0..1) with linear interpolation between
// the two closest ranks. It returns NaN for no samples.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func (s samples) median() float64 { return s.percentile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// tailPercentile is the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it, or 0 when even p90 does not: a tail read
// off fewer samples is one slow request, not a distribution.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.90, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is a hair under 10 in floating point
			best = p
		}
	}
	return best
}

// tail is the p-quantile if the sample supports it, else the highest
// quantile it does support (the median at worst): a metric named for p99
// is p99 whenever a run is long enough to have one.
func (s samples) tail(p float64) float64 {
	return s.percentile(max(0.5, min(p, tailPercentile(len(s)))))
}

// dueTime is when request i of an open-loop schedule is due: the
// schedule never slips, however late earlier requests finished.
func dueTime(start time.Time, interval time.Duration, i int) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// quartileSpread is (Q3-Q1)/median with the exclusive method of
// Python's statistics.quantiles(n=4), the measure the acceptance check
// uses for run-to-run spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		pos := float64(k)*float64(len(sorted)+1)/4 - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, len(sorted)-2))
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	med := samples(sorted).median()
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
