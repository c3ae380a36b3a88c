// Package simcheck is a deterministic, seed-replayable simulation
// harness for the serving stack. A run drives one target — a node, or a
// cluster router over in-process shards — from a generated operation
// schedule: writes through the target's ingest, reads through
// server.API. Every observable result is checked against one small
// in-memory reference model, a label-keyed window archive with naive
// distance loops, which is the only oracle for both targets. On a node
// the schedule also snapshots, flushes, restarts and crashes it under
// internal/fault failpoints (failed fsyncs, snapshot saves failing
// before or after their commit, torn WAL tails). The harness owns all
// time (a logical clock) and randomness (a stats.RNG per run), and on
// divergence reports the seed plus a minimized operation trace so the
// failure replays exactly.
//
// Invariants checked (DESIGN.md §11):
//   - WAL replay after a crash rebuilds exactly the durable records'
//     store state (no loss beyond what the model says was volatile, no
//     duplication, zero replay rejects).
//   - search — flat SoA kernels, cold-block scans, a router's merge of
//     per-shard top-k lists, a batch's slots alike — is exact: it
//     matches the model's full ranking within float tolerance.
//   - history within from/to/limit, its truncation, and the watchlist's
//     hit log are the model's.
//   - a node's universe interning order and every archived window
//     match the model's, bit for bit in label space.
//   - every source of a closed window that stayed within the sketch's
//     candidate bound has the exact TT signature of the records the
//     window took (model.closeExact).
package simcheck

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/stream"
)

// refSig is a signature in label space, in canonical entry order
// (weight desc, NodeID asc; the model interns as a node does).
type refSig struct {
	Labels  []string
	Weights []float64
}

// refWindow is one archived window in label space.
type refWindow struct {
	Window int
	Scheme string
	Order  []string          // source labels in set order
	Sigs   map[string]refSig // source label → signature
}

// labelPart is one universe entry: a label and its bipartite part.
type labelPart struct {
	Label string
	Part  graph.Part
}

// toRefSig converts a core.Signature into label space via u.
func toRefSig(u *graph.Universe, sig core.Signature) refSig {
	out := refSig{Labels: make([]string, sig.Len()), Weights: slices.Clone(sig.Weights)}
	for i, n := range sig.Nodes {
		out.Labels[i] = u.Label(n)
	}
	return out
}

// equalWindow is exact (bit-level) window equality in label space.
func equalWindow(a, b refWindow) bool {
	if a.Window != b.Window || a.Scheme != b.Scheme || !slices.Equal(a.Order, b.Order) {
		return false
	}
	for _, l := range a.Order {
		if !slices.Equal(a.Sigs[l].Labels, b.Sigs[l].Labels) || !slices.Equal(a.Sigs[l].Weights, b.Sigs[l].Weights) {
			return false
		}
	}
	return true
}

// weights returns the signature as a label → weight map.
func (s refSig) weights() map[string]float64 {
	m := make(map[string]float64, len(s.Labels))
	for i, l := range s.Labels {
		m[l] = s.Weights[i]
	}
	return m
}

// toRefWindow converts an emitted signature set into label space.
func toRefWindow(u *graph.Universe, set *core.SignatureSet) refWindow {
	w := refWindow{Window: set.Window, Scheme: set.Scheme, Order: make([]string, len(set.Sources)), Sigs: make(map[string]refSig, len(set.Sources))}
	for i, v := range set.Sources {
		label := u.Label(v)
		w.Order[i] = label
		w.Sigs[label] = toRefSig(u, set.Sigs[i])
	}
	return w
}

// refArchive mirrors store.Add semantics naively: strictly increasing
// window indices, bounded capacity, oldest-first eviction. Windows are
// immutable once added, so clones share them.
type refArchive struct {
	cap     int
	windows []refWindow
}

// add appends w if its index strictly exceeds the newest, and reports
// whether it did (store.Add refuses the rest; the server drops them).
func (a *refArchive) add(w refWindow) bool {
	if n := len(a.windows); n > 0 && w.Window <= a.windows[n-1].Window {
		return false
	}
	a.windows = append(a.windows, w)
	if over := len(a.windows) - a.cap; over > 0 {
		a.windows = append([]refWindow(nil), a.windows[over:]...)
	}
	return true
}

func (a *refArchive) clone() *refArchive {
	return &refArchive{cap: a.cap, windows: append([]refWindow(nil), a.windows...)}
}

// latestSignature mirrors store.LatestSignature: the most recent
// non-empty signature of label.
func (a *refArchive) latestSignature(label string) (refSig, bool) {
	for i := len(a.windows) - 1; i >= 0; i-- {
		if sig, ok := a.windows[i].Sigs[label]; ok && len(sig.Labels) > 0 {
			return sig, true
		}
	}
	return refSig{}, false
}

// windowRange is the oldest and newest archived window index (0, 0
// when none is).
func (a *refArchive) windowRange() (lo, hi int) {
	if n := len(a.windows); n > 0 {
		return a.windows[0].Window, a.windows[n-1].Window
	}
	return 0, 0
}

// refHistoryEntry mirrors store.HistoryEntry in label space.
type refHistoryEntry struct {
	Window int
	Scheme string
	Sig    refSig
}

// history mirrors a node's history read: label's entries within q's
// inclusive window bounds and, past q's limit (0 is
// server.DefaultHistoryLimit, negative none), only the newest ones,
// with truncated set.
func (a *refArchive) history(label string, q server.HistoryQuery) (entries []refHistoryEntry, truncated bool) {
	for _, w := range a.windows {
		if sig, ok := w.Sigs[label]; ok && (!q.HasFrom || w.Window >= q.From) && (!q.HasTo || w.Window <= q.To) {
			entries = append(entries, refHistoryEntry{Window: w.Window, Scheme: w.Scheme, Sig: sig})
		}
	}
	limit := q.Limit
	if limit == 0 {
		limit = server.DefaultHistoryLimit
	}
	if limit > 0 && len(entries) > limit {
		return entries[len(entries)-limit:], true
	}
	return entries, false
}

// naiveDist computes the named distance between two label-space
// signatures with plain loops over label maps — an independent
// reimplementation of core's formulas that shares no code with the
// distance kernels or the NodeID-space scans it checks.
func naiveDist(name string, a, b refSig) float64 {
	if len(a.Labels) == 0 && len(b.Labels) == 0 {
		return 0
	}
	am, bm := a.weights(), b.weights()
	switch name {
	case "jaccard":
		inter := 0
		for l := range am {
			if _, ok := bm[l]; ok {
				inter++
			}
		}
		return 1 - float64(inter)/float64(len(am)+len(bm)-inter)
	case "dice":
		num, den := 0.0, 0.0
		for _, l := range a.Labels {
			if wb, ok := bm[l]; ok && wb > 0 {
				num += am[l] + wb
			}
			den += am[l]
		}
		for _, l := range b.Labels {
			den += bm[l]
		}
		if den == 0 {
			return 0
		}
		return min(max(1-num/den, 0), 1)
	case "sdice", "shel":
		shared := math.Min
		if name == "shel" {
			shared = func(wa, wb float64) float64 { return math.Sqrt(wa * wb) }
		}
		num, den := 0.0, 0.0
		for _, l := range a.Labels {
			wa, wb := am[l], bm[l]
			num += shared(wa, wb)
			den += math.Max(wa, wb)
		}
		for _, l := range b.Labels {
			if _, ok := am[l]; !ok {
				den += bm[l]
			}
		}
		if den == 0 {
			return 0
		}
		return min(max(1-num/den, 0), 1)
	}
	panic("simcheck: unknown distance " + name)
}

// search is the model's FULL ranking (no top-k cut) of a query: every
// non-empty archived signature within maxDist, but exclude's, in the
// newest lastWindows windows (0 = all), by dist asc, window desc, label.
func (a *refArchive) search(dist string, query refSig, maxDist float64, exclude string, lastWindows int) []server.SearchHitJSON {
	windows := a.windows
	if lastWindows > 0 && lastWindows < len(windows) {
		windows = windows[len(windows)-lastWindows:]
	}
	var hits []server.SearchHitJSON
	for _, w := range windows {
		for _, label := range w.Order {
			sig := w.Sigs[label]
			if label == exclude || len(sig.Labels) == 0 {
				continue
			}
			if d := naiveDist(dist, query, sig); d <= maxDist {
				hits = append(hits, server.SearchHitJSON{Label: label, Window: w.Window, Dist: d})
			}
		}
	}
	slices.SortFunc(hits, func(a, b server.SearchHitJSON) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(b.Window, a.Window), cmp.Compare(a.Label, b.Label))
	})
	return hits
}

// diskSnapshot is what a recovery would load from the snapshot
// directory: the archive and the labels in NodeID order, which a
// restore interns in that order.
type diskSnapshot struct {
	archive *refArchive
	labels  []labelPart
}

// faultPlan is the failure the harness injects into one ingest or
// snapshot op (at most one class per op, mirroring how real faults tend
// to arrive).
type faultPlan uint8

const (
	noFault faultPlan = iota
	// The op's WAL commits fail (wal.sync), and what a failed commit
	// carried — records, origin frame, marker — is rolled back. Failing
	// some commits of an op and not others (a generation change's, the
	// batch end's, counted from 0) tells a log that commits a batch's
	// records with its marker from one that does not.
	walFailAll   // every commit of the op
	walFailFirst // the op's first commit only
	walFailRest  // every commit but the op's first
	// snapFail fails snapshot saves before the manifest rename: the old
	// snapshot survives, the WAL is kept.
	snapFail
	// snapCommitted fails the save after the rename (store.save.sweep):
	// Save errs and the WAL is kept, but recovery loads the new snapshot.
	snapCommitted
	// resetFail fails the post-save WAL truncation (wal.reset): the
	// archive is saved, the log keeps its records.
	resetFail
	// segFail fails segment compaction (segment.write, or a torn
	// segment.commit): eviction defers and the window stays in RAM, so
	// nothing observable changes — the invariant under test. It never
	// fails a save, whose window files fire store.save.window points.
	segFail
)

// walFails reports whether the plan fails the op's commit-th WAL commit.
func (p faultPlan) walFails(commit int) bool {
	return p == walFailAll || p == walFailFirst && commit == 0 || p == walFailRest && commit > 0
}

func (p faultPlan) String() string {
	return [...]string{"none", "wal-fail", "wal-fail-first", "wal-fail-rest", "snap-fail", "snap-committed", "reset-fail", "seg-fail"}[p]
}

// model is the reference the target is checked against. It runs its
// own stream.Pipeline over its own universe, fed the same records, and
// mirrors a node's durability bookkeeping (WAL contents, snapshot
// state, checkpoint logic) at per-record granularity.
type model struct {
	cfg Config

	u       *graph.Universe
	pipe    *stream.Pipeline
	archive *refArchive
	pending int
	// open is what each source of the open window did, held exactly:
	// the oracle for the sparse ≡ exact invariant (closeExact).
	open map[string]*exactSource

	// Durability mirror.
	durable        []netflow.Record // records a recovery would replay
	durableMarks   []logMark        // batch markers among them, in log order
	walStaged      []netflow.Record // this op's accepted records, not committed yet
	walCommits     int              // WAL commits this op has made so far
	walOriginKnown bool             // an origin frame is in the log
	disk           *diskSnapshot    // nil: no loadable snapshot on disk

	// Watch screening: the entries the target acknowledged, and the hits
	// its log holds. Watch ops never meet a reboot (Config.Restarts
	// folds them), so neither is carried across one.
	watch []watchEntry
	hits  []server.WatchHitJSON
}

// watchEntry is one acknowledged watchlist signature.
type watchEntry struct {
	individual string
	window     int
	sig        refSig
}

// logMark places one batch marker in the durable log: after its first
// `records` record frames.
type logMark struct {
	id      string
	records int
}

// newModel builds the reference model for a fresh (empty-disk) run.
func newModel(cfg Config) (*model, error) {
	m := &model{cfg: cfg, archive: &refArchive{cap: cfg.archiveCap()}}
	if err := m.buildPipeline(nil, cfg.streamConfig().Origin); err != nil {
		return nil, err
	}
	return m, nil
}

// buildPipeline (re)creates the universe and pipeline as a node does at
// boot: labels in a snapshot's interning order, and the resolved origin
// (zero: learn it from the first accepted record).
func (m *model) buildPipeline(labels []labelPart, origin time.Time) error {
	m.u = graph.NewUniverse()
	for _, lp := range labels {
		if _, err := m.u.Intern(lp.Label, lp.Part); err != nil {
			return fmt.Errorf("simcheck: model intern %q: %w", lp.Label, err)
		}
	}
	scfg := m.cfg.streamConfig()
	scfg.Origin = origin
	p, err := stream.NewPipeline(scfg, m.u)
	if err != nil {
		return fmt.Errorf("simcheck: model pipeline: %w", err)
	}
	m.pipe = p
	m.open = map[string]*exactSource{}
	return nil
}

// exactSource is one source's open window as the records, not a sketch,
// say it: its observations, their total, and the sum per destination
// (integer session counts: the order of addition cannot matter).
type exactSource struct {
	observations int
	total        float64
	sums         map[string]float64
}

// errNotExact marks a violation of the sparse ≡ exact invariant, which
// is the pipeline's failure and not a rejected record.
var errNotExact = errors.New("simcheck: closed window is not exact below the candidate bound")

// feed gives the pipeline one record, keeps the exact account of the
// open window beside it, and holds every window the record closes to
// that account. accepted is 0 for a record the pipeline dropped.
func (m *model) feed(r netflow.Record) (emitted []*core.SignatureSet, accepted int, err error) {
	before := m.pipe.Ingested()
	emitted, err = m.pipe.Ingest(r)
	if err != nil {
		return nil, 0, err
	}
	for _, set := range emitted {
		if err := m.closeExact(set); err != nil {
			return nil, 0, err
		}
	}
	accepted = m.pipe.Ingested() - before
	if accepted > 0 && r.Src != r.Dst {
		src := m.open[r.Src]
		if src == nil {
			src = &exactSource{sums: map[string]float64{}}
			m.open[r.Src] = src
		}
		src.observations++
		src.total += float64(r.Sessions)
		src.sums[r.Dst] += float64(r.Sessions)
	}
	return emitted, accepted, nil
}

// closeExact checks what a closed window owes every source that stayed
// within the candidate bound: the exact TT signature of the records the
// window took — each destination's share of the source's sessions, the
// K heaviest, ties on the stable label key — to the bit. A node's
// windows are held to the model's, so this binds them too. The account
// empties: the next window starts clean.
func (m *model) closeExact(set *core.SignatureSet) error {
	scfg := m.cfg.streamConfig()
	for label, src := range m.open {
		if src.observations > scfg.Sketch.Candidates {
			continue // a sketch by now, and an estimate
		}
		weights := make(map[graph.NodeID]float64, len(src.sums))
		for dst, sum := range src.sums {
			id, _ := m.u.Lookup(dst)
			weights[id] = sum / src.total
		}
		want := core.FromWeightsKeyed(weights, scfg.K, m.u.StableKey)
		id, _ := m.u.Lookup(label)
		got, ok := set.Get(id)
		if !ok || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Weights, want.Weights) {
			return fmt.Errorf("%w: window %d source %q (%d observations): streamed %v, exact %v",
				errNotExact, set.Window, label, src.observations, got, want)
		}
	}
	clear(m.open)
	return nil
}

// archiveWindow archives a closed window and reports whether it was
// kept. As a node screens every window it keeps (apps.Watchlist.Query
// under its distance, jaccard, and watchLimit), every non-empty
// signature of it meets every watch entry, and each individual within
// the limit hits once, at its best entry: the smallest distance, the
// newer window on a tie.
func (m *model) archiveWindow(set *core.SignatureSet) bool {
	w := toRefWindow(m.u, set)
	if !m.archive.add(w) {
		return false
	}
	n := len(m.hits)
	for _, label := range w.Order {
		sig := w.Sigs[label]
		if len(sig.Labels) == 0 {
			continue
		}
		best := map[string]server.WatchHitJSON{}
		for _, e := range m.watch {
			d := naiveDist("jaccard", sig, e.sig)
			if d > watchLimit {
				continue
			}
			if cur, seen := best[e.individual]; !seen || d < cur.Dist || d == cur.Dist && e.window > cur.ArchivedWindow {
				best[e.individual] = server.WatchHitJSON{Window: w.Window, Label: label, Individual: e.individual, ArchivedWindow: e.window, Dist: d}
			}
		}
		for _, h := range best {
			m.hits = append(m.hits, h)
		}
	}
	server.SortWatchHits(m.hits[n:])
	return true
}

// watchAdd mirrors WatchlistAdd of a label: every non-empty archived
// signature of label becomes an entry of individual, and the add
// commits to the log. It reports the entries archived; none is the
// node's 404.
func (m *model) watchAdd(individual, label string) int {
	n := 0
	entries, _ := m.archive.history(label, server.HistoryQuery{Limit: -1})
	for _, e := range entries {
		if len(e.Sig.Labels) > 0 {
			m.watch = append(m.watch, watchEntry{individual: individual, window: e.Window, sig: e.Sig})
			n++
		}
	}
	if n > 0 {
		m.commit(noFault, "")
	}
	return n
}

// universeDump returns u's labels in NodeID order.
func universeDump(u *graph.Universe) []labelPart {
	out := make([]labelPart, u.Size())
	for id := range out {
		out[id] = labelPart{Label: u.Label(graph.NodeID(id)), Part: u.PartOf(graph.NodeID(id))}
	}
	return out
}

// ingestOutcome is the model's prediction for one IngestBatch call.
type ingestOutcome struct {
	Accepted, Dropped, Rejected, WindowsClosed, CurrentWindow int
}

// ingest mirrors Server.ingestLocked record by record under the given
// fault plan: accepted records are staged, a window close checkpoints
// (which drops what is staged when the snapshot takes it), and one
// commit at the end — where the server acknowledges — makes the rest
// durable. crashInside cuts it short where sim.opCrashInside's crash
// lands, right after the batch's first checkpoint: nothing staged after
// it, and no marker, ever reaches the log, and the reopen that follows
// rebuilds everything else from what the disk holds.
func (m *model) ingest(id string, records []netflow.Record, plan faultPlan, crashInside bool) (ingestOutcome, error) {
	var out ingestOutcome
	m.walStaged, m.walCommits = m.walStaged[:0], 0
	for i := range records {
		emitted, accepted, err := m.feed(records[i])
		if err != nil {
			if errors.Is(err, errNotExact) {
				return out, err
			}
			out.Rejected++
			continue
		}
		if len(emitted) > 0 {
			m.pending = 0
			// The server counts every emitted window, even one the store
			// drops as a snapshot-overlap index conflict.
			out.WindowsClosed += len(emitted)
			for _, set := range emitted {
				m.archiveWindow(set)
			}
			if m.checkpoint(plan) {
				m.walStaged = m.walStaged[:0]
			}
			if crashInside {
				m.walStaged = m.walStaged[:0]
				return out, nil
			}
		}
		if accepted > 0 {
			out.Accepted += accepted
			m.pending += accepted
			m.walStaged = append(m.walStaged, records[i])
		} else {
			out.Dropped++
		}
	}
	m.commit(plan, id)
	out.CurrentWindow = m.pipe.CurrentWindow()
	return out, nil
}

// commit mirrors Server.walCommitLocked: what is staged, then the marker
// of batch id if one is given — and before both the origin frame, if the
// pipeline knows an origin this log generation does not hold yet —
// becomes durable, unless the op's WAL fault fails the commit, in which
// case nothing of it survives: not the records, not the marker, and not
// the origin, which the log holds only after a commit that carried it
// succeeded.
func (m *model) commit(plan faultPlan, id string) {
	if !plan.walFails(m.walCommits) {
		m.walOriginKnown = m.walOriginKnown || m.originKnown()
		m.durable = append(m.durable, m.walStaged...)
		if id != "" {
			m.durableMarks = append(m.durableMarks, logMark{id: id, records: len(m.durable)})
		}
	}
	m.walCommits++
	m.walStaged = m.walStaged[:0]
}

// checkpoint mirrors Server.checkpointLocked under the fault plan, and
// like it reports whether the staged records need no logging any more:
// they do not once a save that reported success holds their windows,
// whatever then becomes of the log.
func (m *model) checkpoint(plan faultPlan) bool {
	if plan == snapFail {
		return false // save failed before its rename; disk and WAL unchanged
	}
	m.save()
	switch plan {
	case snapCommitted:
		// Save reported failure, so the WAL is kept — but the manifest
		// rename happened and a recovery loads the new snapshot.
		return false
	case resetFail:
		return true // truncation failed: the log keeps what it held
	}
	// The truncation, then at once the commit of the new generation's
	// prologue; when a WAL fault fails that commit the log stays
	// origin-less until the next one that succeeds.
	m.durable, m.durableMarks, m.walStaged, m.walOriginKnown = m.durable[:0], nil, m.walStaged[:0], false
	m.commit(plan, "")
	return true
}

// originKnown reports whether the pipeline's origin is established.
func (m *model) originKnown() bool {
	_, ok := m.pipe.Origin()
	return ok
}

// snapshot mirrors Server.Snapshot (a save between closes, no WAL
// truncation).
func (m *model) snapshot(plan faultPlan) {
	if plan != snapFail {
		m.save()
	}
}

// save is a snapshot save that commits: the archive and the interning
// order are what a recovery loads.
func (m *model) save() {
	m.disk = &diskSnapshot{archive: m.archive.clone(), labels: universeDump(m.u)}
}

// flushWindow mirrors Server.Flush: close the open window if any
// records are pending (no WAL append, no checkpoint).
func (m *model) flushWindow() (int, error) {
	if m.pending == 0 {
		return 0, nil
	}
	set, err := m.pipe.Flush()
	if err != nil {
		return 0, fmt.Errorf("simcheck: model flush: %w", err)
	}
	if err := m.closeExact(set); err != nil {
		return 0, err
	}
	m.pending = 0
	m.archiveWindow(set)
	return 1, nil
}

// shutdown mirrors Server.Shutdown: flush the partial window, save,
// truncate the log, re-log the origin.
func (m *model) shutdown() error {
	if _, err := m.flushWindow(); err != nil {
		return err
	}
	m.save()
	m.durable, m.durableMarks = m.durable[:0], nil
	m.walOriginKnown = m.originKnown()
	return nil
}

// expectedRecovery is the model's prediction of server.Recovery after
// a reopen.
type expectedRecovery struct {
	SnapshotRestored             bool
	WALRecords, WALWindowsClosed int
	WALTornBytes                 int64
}

// reopen mirrors Server.New over the modeled disk: restore the
// snapshot, resolve the origin, replay the durable records (replayWAL's
// drop-on-conflict and post-replay checkpoint), and predict the
// Recovery report; tornBytes were appended to the real WAL.
func (m *model) reopen(tornBytes int64) (expectedRecovery, error) {
	exp := expectedRecovery{SnapshotRestored: m.disk != nil, WALRecords: len(m.durable), WALTornBytes: tornBytes}
	var labels []labelPart
	m.archive = &refArchive{cap: m.cfg.archiveCap()}
	if m.disk != nil {
		labels = m.disk.labels
		m.archive = m.disk.archive.clone()
	}
	origin := m.cfg.streamConfig().Origin
	if origin.IsZero() && m.walOriginKnown {
		// The WAL's origin frame survives a reset (it is re-appended),
		// so it equals the pipeline's origin whenever one was known.
		if o, ok := m.pipe.Origin(); ok {
			origin = o
		}
	}
	if err := m.buildPipeline(labels, origin); err != nil {
		return exp, err
	}
	m.pending, m.walStaged = 0, m.walStaged[:0]

	// Mirror Server.replayWAL.
	replayed := m.durable
	m.durable = nil
	var tail []netflow.Record
	for i := range replayed {
		emitted, accepted, err := m.feed(replayed[i])
		if err != nil {
			return exp, fmt.Errorf("simcheck: model replay rejected record %d: %w", i, err)
		}
		if len(emitted) > 0 {
			tail = tail[:0]
			m.pending = 0
			for _, set := range emitted {
				if m.archiveWindow(set) {
					exp.WALWindowsClosed++
				}
			}
		}
		if accepted > 0 {
			m.pending += accepted
			tail = append(tail, replayed[i])
		}
	}
	if exp.WALWindowsClosed > 0 {
		// Post-replay checkpoint (no faults are active during reopen).
		m.save()
		m.durable, m.durableMarks = append(m.durable[:0], tail...), nil // the rewritten tail is records only
		m.walOriginKnown = m.originKnown()
	} else {
		m.durable = replayed
	}
	return exp, nil
}
