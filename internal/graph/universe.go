// Package graph implements the communication-graph substrate from the
// paper "On Signatures for Communication Graphs" (ICDE 2008): weighted
// directed graphs aggregated over time windows, with node labels interned
// into a shared Universe so that a node keeps the same identity across
// windows, and optional bipartite partitioning (e.g. local hosts vs
// external hosts, users vs tables).
//
// A Window is immutable once built; construction goes through a Builder
// that aggregates repeated edges by summing weights. Adjacency is stored
// in compressed sparse rows for both out- and in-direction, so signature
// schemes can walk either way in O(degree).
package graph

import "fmt"

// NodeID identifies an interned node label. IDs are dense, starting at 0,
// and stable across all windows sharing the same Universe.
type NodeID int32

// Part classifies a node in an (optionally) bipartite graph.
type Part int8

const (
	// PartNone marks nodes of a general, non-bipartite graph.
	PartNone Part = iota
	// Part1 marks source-side nodes (e.g. local hosts, users).
	Part1
	// Part2 marks destination-side nodes (e.g. external hosts, tables).
	Part2
)

// String renders the part name.
func (p Part) String() string {
	switch p {
	case Part1:
		return "V1"
	case Part2:
		return "V2"
	default:
		return "V"
	}
}

// Universe interns node labels to dense NodeIDs shared by every window of
// a dataset, and records the bipartite part of each node. The paper's
// framework assumes V is (mostly) stable across windows; a shared
// Universe makes cross-window signature comparison by NodeID exact.
//
// Universe is not safe for concurrent mutation; build it up front, then
// read freely from any goroutine.
type Universe struct {
	labels []string
	parts  []Part
	ids    map[string]NodeID
}

// NewUniverse returns an empty Universe.
func NewUniverse() *Universe {
	return &Universe{ids: make(map[string]NodeID)}
}

// Intern returns the NodeID for label, assigning a fresh ID with the
// given part on first sight. Re-interning an existing label with a
// different part is an error: partition membership is a property of the
// label, not of any one window. Interning a label the universe already
// holds writes nothing, so it may run beside other reads (the server's
// signature searches rely on it).
func (u *Universe) Intern(label string, part Part) (NodeID, error) {
	if id, ok := u.ids[label]; ok {
		if u.parts[id] != part {
			return 0, fmt.Errorf("graph: label %q re-interned as %v, was %v", label, part, u.parts[id])
		}
		return id, nil
	}
	id := NodeID(len(u.labels))
	u.labels = append(u.labels, label)
	u.parts = append(u.parts, part)
	u.ids[label] = id
	return id, nil
}

// MustIntern is Intern for call sites that control both the label and the
// part (generators, tests); it panics on part conflicts.
func (u *Universe) MustIntern(label string, part Part) NodeID {
	id, err := u.Intern(label, part)
	if err != nil {
		panic(err)
	}
	return id
}

// Lookup returns the NodeID for label, if interned.
func (u *Universe) Lookup(label string) (NodeID, bool) {
	id, ok := u.ids[label]
	return id, ok
}

// Label returns the label of id. It panics on out-of-range IDs, which
// indicate a Window/Universe mismatch (a programming error).
func (u *Universe) Label(id NodeID) string { return u.labels[id] }

// PartOf reports the bipartite part of id.
func (u *Universe) PartOf(id NodeID) Part { return u.parts[id] }

// Size reports the number of interned labels (|V|).
func (u *Universe) Size() int { return len(u.labels) }

// Bipartite reports whether any node carries a Part1/Part2 assignment.
func (u *Universe) Bipartite() bool {
	for _, p := range u.parts {
		if p != PartNone {
			return true
		}
	}
	return false
}

// PartMembers returns the IDs belonging to part, in ID order.
func (u *Universe) PartMembers(part Part) []NodeID {
	var out []NodeID
	for id, p := range u.parts {
		if p == part {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// CountPart reports how many nodes belong to part.
func (u *Universe) CountPart(part Part) int {
	n := 0
	for _, p := range u.parts {
		if p == part {
			n++
		}
	}
	return n
}
