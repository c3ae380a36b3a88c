// Package simcheck is a deterministic, seed-replayable simulation
// harness for the serving stack. A run drives the real store + wal +
// server ingest/search/snapshot/crash-recover paths from a generated
// operation schedule and checks every observable result against a
// small in-memory reference model: a map-based, label-keyed window
// archive with naive distance loops. The harness owns all time (a
// logical clock) and randomness (a stats.RNG per run), interleaves
// operations with internal/fault failpoints (failed fsyncs, snapshot
// saves failing before or after their commit, torn WAL tails), and on
// divergence reports the seed plus a minimized operation trace so the
// failure replays exactly.
//
// Invariants checked (DESIGN.md §11):
//   - WAL replay after a crash rebuilds exactly the durable records'
//     store state (no loss beyond what the model says was volatile, no
//     duplication, zero replay rejects).
//   - snapshot + replay produce search/history/latest results
//     identical to the model's label-space archive.
//   - store search (flat SoA kernels, cold-block scans) agrees with
//     naive distance loops: every search is exact and matches the
//     model's full ranking within float tolerance — count bounds, and
//     every certain hit present when the result is untruncated.
//   - the server's universe interning order matches the model's, so
//     signatures are bit-identical in label space.
//   - every source of a closed window that stayed within the sketch's
//     candidate bound has the exact TT signature of the records the
//     window took (model.closeExact).
package simcheck

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/netflow"
	"graphsig/internal/stream"
)

// refSig is a signature in label space, preserving canonical entry
// order (weight desc, NodeID asc — NodeID order is reproduced because
// the model interns labels in the same order as the server).
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
	out := refSig{
		Labels:  make([]string, sig.Len()),
		Weights: append([]float64(nil), sig.Weights...),
	}
	for i, n := range sig.Nodes {
		out.Labels[i] = u.Label(n)
	}
	return out
}

// equalRefSig is exact (bit-level) signature equality in label space.
func equalRefSig(a, b refSig) bool {
	if len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] || a.Weights[i] != b.Weights[i] {
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
	w := refWindow{
		Window: set.Window,
		Scheme: set.Scheme,
		Order:  make([]string, len(set.Sources)),
		Sigs:   make(map[string]refSig, len(set.Sources)),
	}
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

// add appends w if its index strictly exceeds the newest; reports
// whether the window was kept (false mirrors store.Add's rejection of
// duplicate/regressing indices, which the server drops silently).
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
func (a *refArchive) latestSignature(label string) (refSig, int, bool) {
	for i := len(a.windows) - 1; i >= 0; i-- {
		if sig, ok := a.windows[i].Sigs[label]; ok && len(sig.Labels) > 0 {
			return sig, a.windows[i].Window, true
		}
	}
	return refSig{}, 0, false
}

// refHistoryEntry mirrors store.HistoryEntry in label space.
type refHistoryEntry struct {
	Window int
	Scheme string
	Sig    refSig
}

// history mirrors store.History.
func (a *refArchive) history(label string) []refHistoryEntry {
	var out []refHistoryEntry
	for _, w := range a.windows {
		if sig, ok := w.Sigs[label]; ok {
			out = append(out, refHistoryEntry{Window: w.Window, Scheme: w.Scheme, Sig: sig})
		}
	}
	return out
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
		union := len(am) + len(bm) - inter
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
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
		return clamp01(1 - num/den)
	case "sdice":
		num, den := 0.0, 0.0
		for _, l := range a.Labels {
			wa, wb := am[l], bm[l]
			num += math.Min(wa, wb)
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
		return clamp01(1 - num/den)
	case "shel":
		num, den := 0.0, 0.0
		for _, l := range a.Labels {
			wa, wb := am[l], bm[l]
			num += math.Sqrt(wa * wb)
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
		return clamp01(1 - num/den)
	}
	panic("simcheck: unknown distance " + name)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// refHit is one reference search hit.
type refHit struct {
	Label  string
	Window int
	Dist   float64
}

// search computes the model's FULL ranked hit list (no top-k
// truncation) for a query signature: every non-empty archived
// signature within maxDist, ordered (dist asc, window desc, label
// asc). lastWindows restricts to the newest n windows (0 = all);
// exclude omits one label.
func (a *refArchive) search(dist string, query refSig, maxDist float64, exclude string, lastWindows int) []refHit {
	windows := a.windows
	if lastWindows > 0 && lastWindows < len(windows) {
		windows = windows[len(windows)-lastWindows:]
	}
	var hits []refHit
	for _, w := range windows {
		for _, label := range w.Order {
			sig := w.Sigs[label]
			if label == exclude || len(sig.Labels) == 0 {
				continue
			}
			if d := naiveDist(dist, query, sig); d <= maxDist {
				hits = append(hits, refHit{Label: label, Window: w.Window, Dist: d})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		if hits[i].Window != hits[j].Window {
			return hits[i].Window > hits[j].Window
		}
		return hits[i].Label < hits[j].Label
	})
	return hits
}

// diskSnapshot is what the model believes a recovery would load from
// the snapshot directory: the archived windows and the universe label
// dump captured at save time (snapshots restore labels in NodeID
// order, which the model must reproduce to keep interning aligned).
type diskSnapshot struct {
	archive *refArchive
	labels  []labelPart
}

// faultPlan is the failure the harness injects into ONE ingest
// operation (at most one class per op, mirroring how real faults tend
// to arrive).
type faultPlan struct {
	// walFail makes WAL commits in the op fail (wal.sync): the records,
	// origin frame and marker a failed commit carried are rolled back.
	// The decision is made commit by commit — see walFault.
	walFail walFault
	// snapFail makes snapshot saves fail before the manifest rename
	// (store.save.window / .window.commit / .labels / .labels.commit /
	// .manifest): the old on-disk
	// snapshot survives, the WAL is kept.
	snapFail bool
	// snapCommitted fails the save after the manifest rename
	// (store.save.sweep): Save reports an error and the WAL is kept,
	// but the new snapshot is committed and recovery loads it.
	snapCommitted bool
	// resetFail makes the post-save WAL truncation fail (wal.reset):
	// the archive is saved but the log keeps its records.
	resetFail bool
	// segFail makes segment compaction fail (segment.write or a torn
	// segment.commit): the store defers eviction and retains the window
	// in RAM, so NOTHING observable changes — the model stays untouched,
	// which is exactly the invariant under test. (Checkpoint window
	// files go through the same commit sequence but fire the
	// store.save.window points, so this plan never fails a save.)
	segFail bool
}

// walFault says which of an op's WAL commits — a generation change's,
// the batch end's, counted from 0 in the order they are made — fail.
// Failing some and not others is what tells a log that carries a
// batch's records and its marker in one commit from one that does not.
type walFault uint8

const (
	walFailAll   walFault = iota + 1 // every commit of the op
	walFailFirst                     // the op's first commit only
	walFailRest                      // every commit but the op's first
)

func (f walFault) fails(commit int) bool {
	switch f {
	case walFailAll:
		return true
	case walFailFirst:
		return commit == 0
	case walFailRest:
		return commit > 0
	}
	return false
}

func (p faultPlan) String() string {
	switch {
	case p.walFail != 0:
		return [...]string{walFailAll: "wal-fail", walFailFirst: "wal-fail-first", walFailRest: "wal-fail-rest"}[p.walFail]
	case p.snapFail:
		return "snap-fail"
	case p.snapCommitted:
		return "snap-committed"
	case p.resetFail:
		return "reset-fail"
	case p.segFail:
		return "seg-fail"
	}
	return "none"
}

// model is the reference implementation the real server is checked
// against. It runs its own stream.Pipeline over its own universe —
// fed exactly the same records, so label interning order, window
// indices and signature bits all match — and mirrors the server's
// durability bookkeeping (WAL contents, snapshot state, checkpoint
// logic) at per-record granularity.
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

// buildPipeline (re)creates the model's universe and pipeline, as the
// server does at boot: labels restores a snapshot's interning order,
// origin is the resolved window origin (zero = learn from the first
// accepted record).
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

// exactSource is one source's open window as the records say it, not
// as any sketch does: how many observations it made, their total, and
// the sum per destination label (integer session counts, so the order
// of addition cannot matter).
type exactSource struct {
	observations int
	total        float64
	sums         map[string]float64
}

// errNotExact marks a violation of the sparse ≡ exact invariant, which
// is the pipeline's failure and not a rejected record.
var errNotExact = errors.New("simcheck: closed window is not exact below the candidate bound")

// feed gives the model's pipeline one record, keeps the exact account
// of the open window beside it, and holds every window the record
// closes to that account. accepted is how many records the pipeline
// took (0 for one it dropped).
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

// closeExact checks the invariant a closed window owes every source
// that stayed within the candidate bound: its signature is the exact TT
// signature of the records the window took — each destination's share
// of the source's sessions, the K heaviest, ties on the stable label
// key — on the bits of every weight. The real server's windows are held
// to the model's bit for bit elsewhere, so this binds them too. It
// empties the account: the next window starts clean.
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
		if !ok || !equalRefSig(toRefSig(m.u, got), toRefSig(m.u, want)) {
			return fmt.Errorf("%w: window %d source %q (%d observations): streamed %v, exact %v",
				errNotExact, set.Window, label, src.observations, got, want)
		}
	}
	clear(m.open)
	return nil
}

// universeDump returns the model universe's labels in NodeID order.
func (m *model) universeDump() []labelPart {
	out := make([]labelPart, m.u.Size())
	for id := 0; id < m.u.Size(); id++ {
		nid := graph.NodeID(id)
		out[id] = labelPart{Label: m.u.Label(nid), Part: m.u.PartOf(nid)}
	}
	return out
}

// ingestOutcome is the model's prediction for one IngestBatch call.
type ingestOutcome struct {
	Accepted      int
	Dropped       int
	Rejected      int
	WindowsClosed int
	CurrentWindow int
}

// ingest mirrors Server.ingestLocked record by record under the given
// fault plan: accepted records are staged, a window close checkpoints
// (which drops what is staged when the snapshot takes it), and one
// commit at the end — where the server acknowledges — makes the rest
// durable.
func (m *model) ingest(id string, records []netflow.Record, plan faultPlan) (ingestOutcome, error) {
	return m.ingestUntil(id, records, plan, false)
}

// crashInside is an ingest cut short where sim.opCrashInside's crash
// lands: right after the batch's first checkpoint. Nothing staged after
// it, and no marker, ever reaches the log; the reopen that follows
// rebuilds everything else from what the disk holds.
func (m *model) crashInside(records []netflow.Record) error {
	_, err := m.ingestUntil("", records, faultPlan{}, true)
	return err
}

func (m *model) ingestUntil(id string, records []netflow.Record, plan faultPlan, crashAfterCheckpoint bool) (ingestOutcome, error) {
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
			for _, set := range emitted {
				// The server counts every emitted window, even one the
				// store drops as a snapshot-overlap index conflict.
				m.archive.add(toRefWindow(m.u, set))
				out.WindowsClosed++
			}
			if m.checkpoint(plan) {
				m.walStaged = m.walStaged[:0]
			}
			if crashAfterCheckpoint {
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
	if !plan.walFail.fails(m.walCommits) {
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
	switch {
	case plan.snapFail:
		return false // save failed before its rename; disk and WAL unchanged
	case plan.snapCommitted:
		// Save reported failure, so the WAL is kept — but the manifest
		// rename happened and a recovery loads the new snapshot.
		m.disk = &diskSnapshot{archive: m.archive.clone(), labels: m.universeDump()}
		return false
	}
	m.disk = &diskSnapshot{archive: m.archive.clone(), labels: m.universeDump()}
	if plan.resetFail {
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

// snapshot mirrors Server.Snapshot (periodic save, no WAL truncation).
func (m *model) snapshot(plan faultPlan) {
	if plan.snapFail {
		return
	}
	m.disk = &diskSnapshot{archive: m.archive.clone(), labels: m.universeDump()}
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
	m.archive.add(toRefWindow(m.u, set))
	return 1, nil
}

// shutdown mirrors Server.Shutdown: flush the partial window, save,
// truncate the log, re-log the origin.
func (m *model) shutdown() error {
	if _, err := m.flushWindow(); err != nil {
		return err
	}
	m.disk = &diskSnapshot{archive: m.archive.clone(), labels: m.universeDump()}
	m.durable, m.durableMarks = m.durable[:0], nil
	m.walOriginKnown = m.originKnown()
	return nil
}

// expectedRecovery is the model's prediction of server.Recovery after
// a reopen.
type expectedRecovery struct {
	SnapshotRestored bool
	WALRecords       int
	WALTornBytes     int64
	WALWindowsClosed int
}

// reopen mirrors Server.New over the modeled disk state: restore the
// snapshot's archive and interning order, resolve the origin, replay
// the durable records (mirroring replayWAL's drop-on-conflict and
// post-replay checkpoint), and predict the Recovery report. tornBytes
// is the garbage the harness appended to the real WAL before reopen.
func (m *model) reopen(tornBytes int64) (expectedRecovery, error) {
	exp := expectedRecovery{
		SnapshotRestored: m.disk != nil,
		WALRecords:       len(m.durable),
		WALTornBytes:     tornBytes,
	}

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
	m.pending = 0
	m.walStaged = m.walStaged[:0]

	// Mirror Server.replayWAL.
	replayed := m.durable
	m.durable = nil
	var tail []netflow.Record
	windowsKept := 0
	for i := range replayed {
		emitted, accepted, err := m.feed(replayed[i])
		if err != nil {
			return exp, fmt.Errorf("simcheck: model replay rejected record %d: %w", i, err)
		}
		if len(emitted) > 0 {
			tail = tail[:0]
			m.pending = 0
			for _, set := range emitted {
				if m.archive.add(toRefWindow(m.u, set)) {
					windowsKept++
				}
			}
		}
		if accepted > 0 {
			m.pending += accepted
			tail = append(tail, replayed[i])
		}
	}
	exp.WALWindowsClosed = windowsKept
	if windowsKept > 0 {
		// Post-replay checkpoint (no faults are active during reopen).
		m.disk = &diskSnapshot{archive: m.archive.clone(), labels: m.universeDump()}
		m.durable, m.durableMarks = append(m.durable[:0], tail...), nil // the rewritten tail is records only
		m.walOriginKnown = m.originKnown()
	} else {
		m.durable = replayed
	}
	return exp, nil
}
