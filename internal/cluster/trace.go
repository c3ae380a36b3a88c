package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"graphsig/internal/obs"
	"graphsig/internal/server"
)

// Trace stitching: GET /v1/traces/{id} on the router assembles the
// distributed trace behind one routed call from every node's local
// trace ring. Each node records its segment under the shared trace ID
// with the upstream span it attaches to (ParentSpanID), so the router
// can reassemble the tree without any trace collector: fetch the
// segments, hang each one under the span that spawned it, and pin its
// clock to that span.
//
// Clock-skew normalization: machines do not share a clock, so a remote
// segment's wall-clock start is never compared with the router's.
// Instead a remote segment is pinned to the start offset of the router
// (or upstream) span that spawned it — the span whose ID it names as
// parent. Offsets inside the segment stay relative to the segment
// start. The displayed timeline is therefore conservative: a remote
// segment appears to start exactly when its parent span started, which
// absorbs the network send but never reorders causality.

// StitchedSpan is one node of the assembled trace tree: either a span
// recorded locally by some node, or a whole remote segment hanging
// under the span that spawned it.
type StitchedSpan struct {
	// Node is the recorder's cluster identity: "router", "s0/primary",
	// "s1/f0" — matching the health prober's endpoint names.
	Node           string `json:"node"`
	Name           string `json:"name"`
	SpanID         string `json:"span_id,omitempty"`
	OffsetMicros   int64  `json:"offset_micros"`
	DurationMicros int64  `json:"duration_micros"`
	// Critical marks the slowest child at each fan-out barrier: the
	// straggler that bounded the barrier's wall time.
	Critical bool            `json:"critical,omitempty"`
	Children []*StitchedSpan `json:"children,omitempty"`
}

// StitchedTraceResponse is the router's GET /v1/traces/{id} body.
type StitchedTraceResponse struct {
	ID             string   `json:"id"`
	DurationMicros int64    `json:"duration_micros"`
	Nodes          []string `json:"nodes"`
	// SpanCount is the total number of tree nodes (root included) — the
	// sum of every participating node's segment sizes.
	SpanCount int           `json:"span_count"`
	Root      *StitchedSpan `json:"root"`
	// Missing lists nodes whose ring could not be consulted (scrape
	// error, not a 404): their segments may exist but are not in the
	// tree.
	Missing []string `json:"missing,omitempty"`
}

// nodeClient pairs a per-node API client with the node's cluster
// identity.
type nodeClient struct {
	name string
	c    *server.Client
}

// nodeClients lists every data node the router knows: shard primaries
// then followers, named like the health prober's endpoints.
func (rt *Router) nodeClients() []nodeClient {
	out := make([]nodeClient, 0, len(rt.clients))
	for s, c := range rt.clients {
		out = append(out, nodeClient{name: fmt.Sprintf("s%d/primary", s), c: c})
	}
	for s, fcs := range rt.followers {
		for i, fc := range fcs {
			out = append(out, nodeClient{name: fmt.Sprintf("s%d/f%d", s, i), c: fc})
		}
	}
	return out
}

func (rt *Router) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	root, ok := rt.tracer.Find(id)
	if !ok {
		server.WriteError(w, http.StatusNotFound,
			"trace %q not retained on the router (never finished or evicted)", id)
		return
	}
	server.WriteJSON(w, http.StatusOK, rt.stitch(id, root))
}

// nodeTrace is one remote node's segment of a distributed trace.
type nodeTrace struct {
	node string
	snap obs.TraceSnapshot
}

// stitch fetches every node's segment of the trace concurrently and
// assembles the tree. A node answering 404 simply did not participate
// (or already evicted the segment); a node failing outright lands in
// Missing.
func (rt *Router) stitch(id string, root obs.TraceSnapshot) StitchedTraceResponse {
	nodes := rt.nodeClients()
	snaps := make([]obs.TraceSnapshot, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nc := range nodes {
		wg.Add(1)
		go func(i int, nc nodeClient) {
			defer wg.Done()
			snaps[i], errs[i] = nc.c.TraceByID(id)
		}(i, nc)
	}
	wg.Wait()

	resp := StitchedTraceResponse{ID: id, DurationMicros: root.DurationMicros}
	var remotes []nodeTrace
	for i, nc := range nodes {
		switch {
		case errs[i] == nil:
			remotes = append(remotes, nodeTrace{node: nc.name, snap: snaps[i]})
		case server.APIStatus(errs[i]) == http.StatusNotFound:
			// Did not participate, or its bounded ring moved on.
		default:
			resp.Missing = append(resp.Missing, fmt.Sprintf("%s: %v", nc.name, errs[i]))
		}
	}
	resp.Root, resp.Nodes, resp.SpanCount = stitchTree(root, remotes)
	return resp
}

// stitchTree assembles the tree from the router's own trace plus the
// remote segments. Offsets are stored parent-relative during assembly,
// then resolved to absolute (root-relative) in one walk — which is
// where the clock-skew pinning happens: a remote segment's relative
// offset is zero, i.e. it starts when its parent span started.
func stitchTree(root obs.TraceSnapshot, remotes []nodeTrace) (*StitchedSpan, []string, int) {
	byID := make(map[string]*StitchedSpan)
	rootSpan := &StitchedSpan{
		Node: "router", Name: root.Name, SpanID: root.SpanID,
		DurationMicros: root.DurationMicros,
	}
	if root.SpanID != "" {
		byID[root.SpanID] = rootSpan
	}
	addSpans(rootSpan, "router", root.Spans, byID)

	// Two passes so a segment can attach under another segment's span
	// (the parent may appear later in the node list than the child).
	segs := make([]*StitchedSpan, len(remotes))
	for i, rem := range remotes {
		seg := &StitchedSpan{
			Node: rem.node, Name: rem.snap.Name, SpanID: rem.snap.SpanID,
			DurationMicros: rem.snap.DurationMicros,
		}
		if rem.snap.SpanID != "" {
			byID[rem.snap.SpanID] = seg
		}
		addSpans(seg, rem.node, rem.snap.Spans, byID)
		segs[i] = seg
	}
	for i, rem := range remotes {
		parent := byID[rem.snap.ParentSpanID]
		if parent == nil || parent == segs[i] {
			parent = rootSpan
		}
		parent.Children = append(parent.Children, segs[i])
	}

	nodes := []string{"router"}
	seen := map[string]bool{"router": true}
	for _, rem := range remotes {
		if !seen[rem.node] {
			seen[rem.node] = true
			nodes = append(nodes, rem.node)
		}
	}

	count := resolve(rootSpan, 0)
	markCritical(rootSpan)
	return rootSpan, nodes, count
}

// addSpans hangs a segment's recorded spans under it, offsets still
// segment-relative, registering span IDs for parentage matching.
func addSpans(parent *StitchedSpan, node string, spans []obs.SpanSnapshot, byID map[string]*StitchedSpan) {
	for _, sp := range spans {
		child := &StitchedSpan{
			Node: node, Name: sp.Name, SpanID: sp.SpanID,
			OffsetMicros: sp.OffsetMicros, DurationMicros: sp.DurationMicros,
		}
		if sp.SpanID != "" {
			byID[sp.SpanID] = child
		}
		parent.Children = append(parent.Children, child)
	}
}

// resolve converts parent-relative offsets to absolute ones, sorts
// each child list by start time, and counts the tree.
func resolve(n *StitchedSpan, base int64) int {
	n.OffsetMicros += base
	count := 1
	for _, c := range n.Children {
		count += resolve(c, n.OffsetMicros)
	}
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].OffsetMicros < n.Children[j].OffsetMicros
	})
	return count
}

// markCritical marks, at every fan-out, the child that bounded its
// parent's wall time — the slowest shard per barrier. The root is
// always on the critical path.
func markCritical(n *StitchedSpan) {
	n.Critical = true
	var slowest *StitchedSpan
	for _, c := range n.Children {
		if slowest == nil || c.DurationMicros > slowest.DurationMicros {
			slowest = c
		}
		markChildren(c)
	}
	if slowest != nil {
		slowest.Critical = true
	}
}

// markChildren applies the per-barrier rule below the root without
// forcing every interior node onto the critical path.
func markChildren(n *StitchedSpan) {
	var slowest *StitchedSpan
	for _, c := range n.Children {
		if slowest == nil || c.DurationMicros > slowest.DurationMicros {
			slowest = c
		}
		markChildren(c)
	}
	if slowest != nil {
		slowest.Critical = true
	}
}
