package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made: a client request or a direct
// call into one layer. Request groups the spans of one request; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Request int           `json:"request"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	requests int // requests begun so far
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span. A root span (parent 0) starts a new request; a
// child belongs to its parent's.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	request := r.requests + 1
	if parent != 0 {
		request = r.spans[parent-1].Request
	} else {
		r.requests = request
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, Start: now, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn as a span under parent and returns how long it took;
// with a nil recorder it only times.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// durations lists, in milliseconds, every finished span of one name.
func (r *recorder) durations(name string) samples {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out samples
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
