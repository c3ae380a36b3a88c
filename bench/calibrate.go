package main

import (
	"sort"
	"time"
)

// The sandbox's speed is not constant. Its two cores share caches and
// memory with other tenants, and the same binary runs 10-60% slower for
// minutes at a time with nothing in the guest to show for it: between
// two runs a quarter of an hour apart every timing of this benchmark
// moved by a fifth, in step. A timing taken as it is says as much about
// the neighbours as about the commit.
//
// So every timed slice is bracketed by a calibration: a fixed piece of
// work, timed on the spot. A slice's timings are scaled by
// kernelReferenceMS over the kernel's time around the slice, which
// states them at the speed of a quiet sandbox. The kernel sorts random
// floats, which takes in what a neighbour takes away (cache, memory
// bandwidth, branch throughput) in about the proportion the system
// under test does; a pure ALU loop stays flat while the system slows.
//
// The kernel runs on one goroutine and the program under test is idle
// while it does, so work the program leaves running in the background
// has the other core and does not pass for a slow host.

// kernelFloats is the kernel's input: 512 KB, more than the cores'
// private caches hold.
const kernelFloats = 1 << 16

// kernelReferenceMS is what the kernel takes on the sandbox at its
// quietest. It fixes the scale of every reported timing and nothing
// else: on another machine all timings are off by one common factor.
const kernelReferenceMS = 5.6

// kernelReps is how many times a calibration runs the kernel; it
// reports the median.
const kernelReps = 5

var (
	kernelInput = func() []float64 {
		xs := make([]float64, kernelFloats)
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x>>11) / (1 << 53)
		}
		return xs
	}()
	kernelScratch = make([]float64, kernelFloats)
)

// calibrate times the kernel and returns the median of its repetitions,
// in milliseconds.
func calibrate() float64 {
	var times [kernelReps]float64
	for i := range times {
		t0 := time.Now()
		copy(kernelScratch, kernelInput)
		sort.Float64s(kernelScratch)
		times[i] = ms(time.Since(t0))
	}
	return samples(times[:]).median()
}
