package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus what its children cover;
// overlapping children are counted once and a grandchild is charged to
// its own parent only.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "store", Start: 20 * ms, End: 60 * ms}, // overlaps decode by 10ms
		{ID: 4, Parent: 3, Name: "kernel", Start: 25 * ms, End: 55 * ms},
		{ID: 5, Parent: 1, Name: "unfinished", Start: 70 * ms, End: -1},
		{ID: 6, Name: "request", Start: 200 * ms, End: 210 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": (100-50)*ms + 10*ms,
		"decode":  20 * ms,
		"store":   10 * ms,
		"kernel":  30 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if _, ok := got["unfinished"]; ok {
		t.Error("an unfinished span was given a self time")
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("a nil recorder handed out span %d", id)
	}
	off.end(0)
	if d := off.timed("x", 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("a nil recorder timed %v for a 1ms sleep", d)
	}

	rec := newRecorder()
	parent := rec.begin("parent", 0)
	rec.timed("child", parent, func() {})
	rec.end(parent)
	rec.timed("next", 0, func() {})
	if len(rec.spans) != 3 || rec.spans[1].Parent != parent || rec.spans[1].Request != rec.spans[0].Request || rec.spans[2].Request == rec.spans[0].Request {
		t.Errorf("a child must share its parent's request and a new root must not: %+v", rec.spans)
	}
	if got := rec.durations("child"); len(got) != 1 {
		t.Errorf("durations(child) = %v", got)
	}
}
