package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := s.percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (samples{1, 2, 3, 4}).median(); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("median of no samples should be NaN")
	}
	if s[0] != 5 {
		t.Error("percentile sorted its receiver in place")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A named tail falls back to what the sample supports.
func TestTailFallsBack(t *testing.T) {
	s := make(samples, 200)
	for i := range s {
		s[i] = float64(i)
	}
	if got, want := s.tail(0.99), s.percentile(0.90); got != want {
		t.Errorf("tail(0.99) of 200 samples = %v, want p90 = %v", got, want)
	}
	if got, want := s[:50].tail(0.90), s[:50].median(); got != want {
		t.Errorf("tail(0.90) of 50 samples = %v, want the median %v", got, want)
	}
}

// Rounds are pooled before the median is taken: the median of medians
// of these two rounds would be 6, the pooled median is 3.
func TestPooledRoundMedian(t *testing.T) {
	a, b := samples{1, 2, 3}, samples{2, 10, 20, 30}
	if got := pool(a, b).median(); got != 3 {
		t.Errorf("pooled median = %v, want 3", got)
	}
	if len(a) != 3 || len(b) != 4 {
		t.Error("pool changed its inputs")
	}
}

// The open-loop schedule is fixed at the start and never slips.
func TestDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := 50 * time.Millisecond
	for i, want := range []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond} {
		if got := dueTime(start, interval, i).Sub(start); got != want {
			t.Errorf("batch %d due %v after start, want %v", i, got, want)
		}
	}
}

// quartileSpread follows Python's statistics.quantiles(xs, n=4): for
// 1..10 the quartiles are 2.75 and 8.25 and the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// A host running 1.5 times slower than the reference makes a time 1.5
// times longer and a rate 1.5 times lower; stating them at the reference
// speed undoes both.
func TestAtReferenceSpeed(t *testing.T) {
	if got := atReferenceSpeed(metric("search_hot_p50_ms"), 6, 1.5); math.Abs(got-4) > 1e-12 {
		t.Errorf("a 6 ms time at slowdown 1.5 = %v at the reference speed, want 4", got)
	}
	if got := atReferenceSpeed(metric("ingest_records_per_s"), 80000, 1.5); math.Abs(got-120000) > 1e-6 {
		t.Errorf("a rate of 80000/s at slowdown 1.5 = %v at the reference speed, want 120000", got)
	}
}

// The work of a run follows from -seconds alone: one warm-up round and
// one measured round per roundSeconds after it, never fewer than
// minRounds.
func TestRoundsFollowSeconds(t *testing.T) {
	for _, c := range []struct{ seconds, rounds int }{{1, minRounds}, {16, 3}, {32, 7}, {60, 14}} {
		if got := sizingFor("wide", c.seconds).rounds; got != c.rounds {
			t.Errorf("-seconds %d gives %d measured rounds, want %d", c.seconds, got, c.rounds)
		}
	}
	if sizingFor("deep", defaultSeconds).rounds != sizingFor("wide", defaultSeconds).rounds {
		t.Error("the two workloads make different numbers of rounds")
	}
}

// A calibration is the kernel's time in milliseconds: positive, and the
// same work every time.
func TestCalibrate(t *testing.T) {
	before := append([]float64(nil), kernelInput...)
	if ms := calibrate(); ms <= 0 {
		t.Errorf("calibrate() = %v ms", ms)
	}
	for i := range before {
		if kernelInput[i] != before[i] {
			t.Fatal("calibrate sorted its input in place: the next calibration would do less work")
		}
	}
}
