package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestAccumulatorAgainstNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 8
		}
		var acc Accumulator
		for _, x := range xs {
			acc.Add(x)
		}
		// Naive two-pass mean and variance.
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		variance := ss / float64(len(xs))
		const eps = 1e-7
		return math.Abs(acc.Mean()-mean) < eps &&
			math.Abs(acc.Variance()-variance) < eps*(1+variance) &&
			acc.Min() == mn && acc.Max() == mx && acc.N() == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.Variance() != 0 || acc.StdDev() != 0 || acc.N() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var acc Accumulator
	acc.Add(3.5)
	if acc.Mean() != 3.5 || acc.Variance() != 0 || acc.Min() != 3.5 || acc.Max() != 3.5 {
		t.Fatalf("single-point stats wrong: %+v", acc.Summarize())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 9}, {0.5, 5}, {0.25, 3}, {0.75, 7},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile(xs, 0.125); got != 2 {
		t.Fatalf("interpolated quantile = %g, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile of empty slice should be NaN")
	}
	// Quantile must not mutate its input.
	if xs[0] != 9 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean of empty slice should be NaN")
	}
}

func TestSummaryString(t *testing.T) {
	s := SummarizeSlice([]float64{1, 2, 3})
	if s.String() == "" || s.N != 3 {
		t.Fatalf("bad summary: %v", s)
	}
}

// TestAccumulatorMergeMatchesChain: merging the partials of any split of
// a stream — Batch partials or Add chains, empty and one-element parts
// included — agrees with one Add chain over the whole stream: N, Min and
// Max exactly, Mean and StdDev to 1e-12 relative.
func TestAccumulatorMergeMatchesChain(t *testing.T) {
	rng := NewRNG(5)
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, rng.Intn(3000))
		for i := range xs {
			xs[i] = rng.Float64()
			if rng.Intn(4) == 0 {
				xs[i] = 1 // distances pile up at 1
			}
		}
		var chain Accumulator
		for _, x := range xs {
			chain.Add(x)
		}
		// Cut points: some repeated (empty parts), some one apart.
		cuts := []int{0, len(xs)}
		for range rng.Intn(12) {
			c := rng.Intn(len(xs) + 1)
			cuts = append(cuts, c, c, min(c+1, len(xs)))
		}
		slices.Sort(cuts)
		var batched, chained Accumulator
		for k := 1; k < len(cuts); k++ {
			part := xs[cuts[k-1]:cuts[k]]
			batched.Merge(Batch(part))
			var c Accumulator
			for _, x := range part {
				c.Add(x)
			}
			chained.Merge(c)
		}
		want := chain.Summarize()
		for name, acc := range map[string]Accumulator{"batch": batched, "chain": chained} {
			got := acc.Summarize()
			if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
				!near(got.Mean, want.Mean) || !near(got.StdDev, want.StdDev) {
				t.Fatalf("trial %d, %d values, %d cuts, %s partials: merged %+v, chain %+v",
					trial, len(xs), len(cuts), name, got, want)
			}
		}
	}
}
