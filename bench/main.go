// Command bench is graphsig's serving and analytics benchmark: it hosts
// the system in-process, drives it through its public surfaces with
// inputs made from a seed, checks the outputs, and prints every metric
// BENCHMARK.json declares. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traceOut  string
	selfcheck int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: wide, deep or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is made from")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run length; it fixes the number of rounds (one per 4 s), not a deadline")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: record spans and report per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run two sets of this many runs per workload and compare them (the noise check)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames())
		}
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if o.selfcheck > 0 {
		return selfcheck(o, names)
	}
	failed := false
	for _, name := range names {
		rep, err := runWorkload(name, sizingFor(name, o.seconds), o)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		rep.print(os.Stdout, o.trace == 1)
		fmt.Println(rep.resultLine(o.trace == 1))
		failed = failed || rep.failed > 0
	}
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

// bench is the state one run's stages share.
type bench struct {
	sz   sizing
	seed int64
	ds   *dataset
	dir  string    // scratch directory, removed when the run ends
	rec  *recorder // nil on an untraced run
	rep  *report

	// warm is set during the first round, whose observations are thrown
	// away: caches fill, connections open and the nodes reach the state
	// every later round starts from.
	warm bool
	// perRound holds, per metric, one value for each measured round, at
	// the reference speed (see calibrate.go); asTimed holds the same
	// values as the clock gave them, and counts how many samples stand
	// behind them.
	perRound map[string][]float64
	asTimed  map[string][]float64
	counts   map[string]int

	// lastKernel is the latest calibration, and slowdowns the factor of
	// every measured slice.
	lastKernel float64
	slowdowns  samples
}

// startSlice is called where a timed slice begins, with the program
// under test idle.
func (b *bench) startSlice() {
	b.lastKernel = calibrate()
}

// slowdown calibrates and reports how much slower than the reference the
// host ran since the previous calibration: the mean of the two, over the
// reference.
func (b *bench) slowdown() float64 {
	now := calibrate()
	s := (b.lastKernel + now) / 2 / kernelReferenceMS
	b.lastKernel = now
	if !b.warm {
		b.slowdowns = append(b.slowdowns, s)
	}
	return s
}

// atReferenceSpeed states a value measured while the host ran slowdown
// times slower than the reference as the reference host would have
// given it: a time shrinks by the factor, a rate grows by it.
func atReferenceSpeed(d metricDef, v, slowdown float64) float64 {
	if d.Better == "higher" {
		return v * slowdown
	}
	return v / slowdown
}

// observe records one round's value of a timed end-to-end metric, made
// from n samples in the slice that just ended.
func (b *bench) observe(name string, v float64, n int) {
	b.record(b.slowdown(), name, v, n)
}

// record is observe for a slice that yields more than one metric: the
// caller takes the slice's slowdown once and records each with it.
func (b *bench) record(slowdown float64, name string, v float64, n int) {
	if b.warm {
		return
	}
	b.perRound[name] = append(b.perRound[name], atReferenceSpeed(metric(name), v, slowdown))
	b.asTimed[name] = append(b.asTimed[name], v)
	b.counts[name] += n
}

// reportOverRounds reports end-to-end metrics observed once per round.
// A metric's value for the run is the median of its per-round values, so
// that a slow spell of the machine has to cover half the run before it
// moves the result.
func (b *bench) reportOverRounds(names ...string) {
	for _, name := range names {
		b.rep.endToEnd(name, samples(b.perRound[name]).median(), samples(b.asTimed[name]).median(), b.counts[name])
	}
}

// stage is one part of the system under one kind of load.
type stage interface {
	// round runs one slice of each of the stage's phases.
	round(r int) error
	// finish checks what can only be checked at the end, reports the
	// stage's metrics and, on a traced run, probes its layers.
	finish() error
}

func runWorkload(name string, sz sizing, o options) (*report, error) {
	// The sandbox has two cores; pinning the count keeps a run on a
	// larger machine comparable and the goroutine budget explicit.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	dir, err := os.MkdirTemp("", "sigbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{sz: sz, seed: o.seed, dir: dir, rep: newReport(name), perRound: map[string][]float64{}, asTimed: map[string][]float64{}, counts: map[string]int{}}
	if o.trace == 1 {
		b.rec = newRecorder()
	}

	t0 := time.Now()
	in, err := generateInputs(o.seed, sz)
	if err != nil {
		return nil, err
	}
	b.ds = in.ds
	datagen := time.Since(t0)

	env, err := b.setUp(in)
	if err != nil {
		return nil, err
	}
	defer env.close()
	fmt.Fprintf(os.Stderr, "%s: inputs %.1fs, set-up and warm-up %.1fs\n", name, datagen.Seconds(), time.Since(t0).Seconds()-datagen.Seconds())

	ingest := newIngestStage(b, env)
	stages := []stage{ingest, newQueryStage(b, env), newClusterStage(b, env, ingest), newAnalyticsStage(b, env)}
	t0 = time.Now()
	for r := 0; r <= sz.rounds; r++ {
		b.warm = r == 0
		for _, st := range stages {
			// One slice's garbage is collected before the next starts,
			// not on its clock.
			runtime.GC()
			b.startSlice()
			if err := st.round(r); err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s: warm-up round and %d measured rounds %.1fs\n", name, sz.rounds, time.Since(t0).Seconds())
	for _, st := range stages {
		if err := st.finish(); err != nil {
			return nil, err
		}
	}
	if b.rec != nil {
		b.rep.layer("bench.datagen_s", datagen.Seconds(), "s", 1)
		b.rep.layer("bench.host_slowdown", b.slowdowns.median(), "ratio", len(b.slowdowns))
		b.rep.selfTime = selfTimes(b.rec.spans)
		if o.traceOut != "" {
			if err := b.rec.writeJSON(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	if err := b.rep.validate(); err != nil {
		return nil, err
	}
	return b.rep, nil
}
