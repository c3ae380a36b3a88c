// Package stream implements the end-to-end semi-streaming pipeline of
// the paper's §VI: flow records are consumed one at a time, bucketed
// into consecutive time windows, and summarized by per-node sketches —
// so per-window signature sets are produced without ever materializing
// a communication graph. This is the deployment mode for graphs too
// large to store (the paper's "graph of all phone calls made over a
// week").
package stream

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/sketch"
)

// Config parameterizes a streaming signature pipeline.
type Config struct {
	// WindowSize is the aggregation interval.
	WindowSize time.Duration
	// Origin anchors window boundaries; zero means the first record's
	// start time.
	Origin time.Time
	// Classify assigns bipartite parts (nil = general graph).
	Classify netflow.Classifier
	// TCPOnly drops non-TCP records (the paper's setting).
	TCPOnly bool
	// K is the signature length extracted per window.
	K int
	// Scheme selects the extractor: "tt" or "ut".
	Scheme string
	// Sketch sizes the per-node state.
	Sketch sketch.StreamConfig
	// Registry, when non-nil, receives the pipeline's metrics
	// (window-close signature extraction latency; sources closed
	// still sparse vs holding a sketch). Nil disables instrumentation.
	Registry *obs.Registry
}

func (c *Config) validate() error {
	switch {
	case c.WindowSize <= 0:
		return fmt.Errorf("stream: WindowSize must be positive")
	case c.K <= 0:
		return fmt.Errorf("stream: K must be positive")
	case c.Scheme != "tt" && c.Scheme != "ut":
		return fmt.Errorf("stream: scheme %q not streamable (want tt or ut)", c.Scheme)
	}
	return nil
}

// extractor is the common surface of StreamTT and StreamUT.
type extractor interface {
	Observe(src, dst graph.NodeID, weight float64) error
	SignatureWith(sc *sketch.Scratch, v graph.NodeID, k int) (core.Signature, error)
	Sources() []graph.NodeID
	DenseSources() int
}

// minRun is the fewest sources one run of a window close extracts.
// Below it a run's goroutine costs about what it takes off the closing
// one (EXPERIMENTS.md "Window close on both cores").
const minRun = 64

// Pipeline ingests flow records in time order and emits one
// SignatureSet per completed window. Records may arrive slightly out of
// order within the current window; a record belonging to an already
// emitted window is rejected (the sketch state is gone).
type Pipeline struct {
	cfg      Config
	universe *graph.Universe

	originSet bool
	origin    time.Time
	window    int
	ingested  int

	current extractor
	// runs, when positive, fixes how many runs a close extracts in (tests
	// only); scratch holds one extraction's working memory per run, kept
	// from close to close. closeBegan is when the latest Ingest that
	// closed a window began closing it.
	runs       int
	scratch    []sketch.Scratch
	closeBegan time.Time

	closeSeconds *obs.Histogram // window-close signature extraction time
	// Sources of closed windows by what their state had become: still
	// the log of their observations, or a sketch (sketch.StreamConfig).
	sparseSources, denseSources *obs.Counter
}

// NewPipeline builds a pipeline over a shared (possibly pre-populated)
// universe; nil allocates a fresh one.
func NewPipeline(cfg Config, u *graph.Universe) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Classify == nil {
		cfg.Classify = netflow.General
	}
	if u == nil {
		u = graph.NewUniverse()
	}
	p := &Pipeline{cfg: cfg, universe: u}
	if cfg.Registry != nil {
		p.closeSeconds = cfg.Registry.Histogram("pipeline_window_close_seconds",
			"signature extraction time per closed window")
		p.sparseSources = cfg.Registry.Counter("pipeline_sources_sparse_total",
			"sources of closed windows that stayed within the candidate bound and never allocated a sketch")
		p.denseSources = cfg.Registry.Counter("pipeline_sources_dense_total",
			"sources of closed windows that outgrew the candidate bound and held a sketch")
	}
	if !cfg.Origin.IsZero() {
		p.origin = cfg.Origin
		p.originSet = true
	}
	p.current = p.newExtractor()
	return p, nil
}

func (p *Pipeline) newExtractor() extractor {
	scfg := p.cfg.Sketch
	if scfg.Key == nil {
		// Key the sketches and tie-breaks on the stable label hash, not
		// the NodeID: interning order is a per-process accident, and a
		// cluster shard must compute the same signature bytes for a
		// source as a single node holding the whole stream would.
		scfg.Key = p.universe.StableKey
	}
	if p.cfg.Scheme == "ut" {
		return sketch.NewStreamUT(scfg)
	}
	return sketch.NewStreamTT(scfg)
}

// Universe returns the shared label universe.
func (p *Pipeline) Universe() *graph.Universe { return p.universe }

// CurrentWindow reports the index of the window now accumulating.
func (p *Pipeline) CurrentWindow() int { return p.window }

// Origin reports the window origin once it is known — either from the
// config or from the first accepted record. Serving layers persist it
// (internal/wal) so a restarted pipeline keeps its window alignment.
func (p *Pipeline) Origin() (time.Time, bool) { return p.origin, p.originSet }

// Ingested reports the number of records accepted so far.
func (p *Pipeline) Ingested() int { return p.ingested }

// Ingest consumes one record. When the record starts a later window,
// every window up to it is closed and their signature sets returned
// (empty windows yield sets with zero sources).
func (p *Pipeline) Ingest(r netflow.Record) ([]*core.SignatureSet, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if p.cfg.TCPOnly && r.Proto != netflow.TCP {
		return nil, nil
	}
	if !p.originSet {
		p.origin = r.Start
		p.originSet = true
	}
	d := r.Start.Sub(p.origin)
	if d < 0 {
		return nil, fmt.Errorf("stream: record at %v precedes origin %v", r.Start, p.origin)
	}
	idx := int(d / p.cfg.WindowSize)
	if idx < p.window {
		return nil, fmt.Errorf("stream: record at %v belongs to emitted window %d (current %d)", r.Start, idx, p.window)
	}
	var emitted []*core.SignatureSet
	if p.window < idx {
		p.closeBegan = time.Now()
	}
	for p.window < idx {
		set, err := p.closeWindow()
		if err != nil {
			return nil, err
		}
		emitted = append(emitted, set)
	}
	src, err := p.universe.Intern(r.Src, p.cfg.Classify(r.Src))
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	dst, err := p.universe.Intern(r.Dst, p.cfg.Classify(r.Dst))
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if err := p.current.Observe(src, dst, float64(r.Sessions)); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	p.ingested++
	return emitted, nil
}

// CloseBegan reports when the latest Ingest that closed a window began
// closing it (the zero time before any did); serving layers trace the
// extraction from it.
func (p *Pipeline) CloseBegan() time.Time { return p.closeBegan }

// Flush closes the current window and returns its signature set; the
// pipeline then continues with the next window (used at end of input).
func (p *Pipeline) Flush() (*core.SignatureSet, error) {
	return p.closeWindow()
}

func (p *Pipeline) closeWindow() (*core.SignatureSet, error) {
	begin := time.Now()
	defer p.closeSeconds.ObserveSince(begin)
	sources := p.current.Sources()
	dense := p.current.DenseSources()
	p.denseSources.Add(int64(dense))
	p.sparseSources.Add(int64(len(sources) - dense))
	// Bipartite discipline: signatures only for Part1 sources, matching
	// core.DefaultSources on materialized graphs.
	bip := p.universe.Bipartite()
	kept := sources[:0]
	for _, v := range sources {
		if !bip || p.universe.PartOf(v) == graph.Part1 {
			kept = append(kept, v)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	sigs, err := p.extract(kept)
	if err != nil {
		return nil, fmt.Errorf("stream: window %d: %w", p.window, err)
	}
	set, err := core.NewSignatureSet(p.cfg.Scheme+"-stream", p.window, kept, sigs)
	if err != nil {
		return nil, fmt.Errorf("stream: window %d: %w", p.window, err)
	}
	p.window++
	p.current = p.newExtractor()
	return set, nil
}

// extract returns the signatures of sources, which are sorted. Each
// depends on its source's state alone, so they are cut into k
// contiguous runs, k = min(GOMAXPROCS, len/minRun) or p.runs, and runs
// 2..k extract beside the first, each into its own part of the result
// with its own scratch. The result is the same for every k. Nothing may
// observe meanwhile: the extractor is only read.
func (p *Pipeline) extract(sources []graph.NodeID) ([]core.Signature, error) {
	n := len(sources)
	k := p.runs
	if k <= 0 {
		k = min(runtime.GOMAXPROCS(0), n/minRun)
	}
	k = max(1, min(k, n))
	for len(p.scratch) < k {
		p.scratch = append(p.scratch, sketch.Scratch{})
	}
	sigs := make([]core.Signature, n)
	errs := make([]error, k)
	run := func(r int) {
		sc := &p.scratch[r]
		for i := r * n / k; i < (r+1)*n/k; i++ {
			sig, err := p.current.SignatureWith(sc, sources[i], p.cfg.K)
			if err != nil {
				errs[r] = err
				return
			}
			sigs[i] = sig
		}
	}
	var wg sync.WaitGroup
	for r := 1; r < k; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(r)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

// Run ingests a whole record slice (already time-ordered) and returns
// one signature set per window including the final partial window.
func Run(cfg Config, u *graph.Universe, records []netflow.Record) ([]*core.SignatureSet, error) {
	p, err := NewPipeline(cfg, u)
	if err != nil {
		return nil, err
	}
	var out []*core.SignatureSet
	for i := range records {
		emitted, err := p.Ingest(records[i])
		if err != nil {
			return nil, fmt.Errorf("stream: record %d: %w", i, err)
		}
		out = append(out, emitted...)
	}
	if p.Ingested() == 0 {
		return out, nil
	}
	last, err := p.Flush()
	if err != nil {
		return nil, err
	}
	return append(out, last), nil
}
