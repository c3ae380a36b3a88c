package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// watchNode is a writable node with its log on disk and one closed
// window, whose hosts 10.0.0.1–3 a label add can archive.
func watchNode(tb testing.TB, dir string) *Server {
	tb.Helper()
	srv, err := New(crashConfig(filepath.Join(dir, "snap")))
	if err != nil {
		tb.Fatal(err)
	}
	if res := srv.IngestBatch("", append(window0Flows(), flowAt("10.0.0.1", "e1", time.Hour, 1))); res.WindowsClosed != 1 {
		tb.Fatalf("window 0 did not close: %+v", res)
	}
	return srv
}

// watchState is what a watchlist add may change: the labels the node
// knows, the signatures it screens against and its log's size.
type watchState struct {
	labels, watched int
	logBytes        int64
}

func stateOf(tb testing.TB, srv *Server) watchState {
	tb.Helper()
	size, err := srv.wal.Size()
	if err != nil {
		tb.Fatal(err)
	}
	return watchState{srv.Store().Universe().Size(), srv.watch.Len(), size}
}

// postWatch sends body to POST /v1/watchlist and returns the recorder.
func postWatch(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/watchlist", bytes.NewReader(body)))
	return rec
}

// TestWatchlistAddRefusalChangesNothing: a watchlist add the node
// answers 400 — or 404 — leaves no trace: no label interned (it would
// reach the next snapshot's label file under a NodeID the node's
// followers never assign), no signature archived, nothing logged. A
// signature is checked whole before any of its labels is interned.
func TestWatchlistAddRefusalChangesNothing(t *testing.T) {
	srv := watchNode(t, t.TempDir())
	defer srv.Abort()
	for _, body := range []string{
		`{"individual":"x","window":0,"signature":{"nodes":["n1","n2","n3"],"weights":[0,-1,0]}}`,
		`{"individual":"x","window":0,"signature":{"nodes":["n1","n1"],"weights":[2,-2]}}`,
		`{"individual":"x","window":0,"signature":{"nodes":["n1","n1"],"weights":[1e308,1e308]}}`,
		`{"individual":"x","window":0,"signature":{"nodes":["n1","n2"],"weights":[1]}}`,
		`{"individual":"x","signature":{"nodes":["n1"],"weights":[1]}}`,
		`{"window":0,"signature":{"nodes":["n1"],"weights":[1]}}`,
		`{"individual":"x","window":0,"signature":{"nodes":["n1"],"weights":[1]}} trailing`,
		`{"individual":"x","label":"10.9.9.9"}`,
		`{"individual":"x","label":"10.0.0.1","window":7}`,
	} {
		before := stateOf(t, srv)
		rec := postWatch(srv, []byte(body))
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		if after := stateOf(t, srv); after != before {
			t.Fatalf("%s: refused with %d, yet the node changed: %+v -> %+v", body, rec.Code, before, after)
		}
	}
	// The same signature with one positive weight is taken: it interns
	// all three labels, archives one signature and commits one frame.
	before := stateOf(t, srv)
	rec := postWatch(srv, []byte(`{"individual":"x","window":0,"signature":{"nodes":["n1","n2","n3"],"weights":[0,1,0]}}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if after := stateOf(t, srv); after.labels != before.labels+3 || after.watched != before.watched+1 || after.logBytes <= before.logBytes {
		t.Fatalf("accepted add: %+v -> %+v", before, after)
	}
}

// FuzzWatchlistAdd sends arbitrary bodies to POST /v1/watchlist on a
// writable node with its log on disk and one closed window. No body may
// panic or be answered 500; every status is 200, 400 or 404; and an
// answer other than 200 leaves the universe, the watchlist and the
// log's size as they were. One node serves every input of a process:
// what a request does depends on the node only through window 0's
// archive, which no add changes, and the check compares each request's
// before and after.
func FuzzWatchlistAdd(f *testing.F) {
	for _, body := range []string{
		`{"individual":"case-7","label":"10.0.0.1"}`,
		`{"individual":"case-7","label":"10.0.0.2","window":0}`,
		`{"individual":"case-7","label":"10.0.0.2","window":3}`,
		`{"individual":"case-7","label":"e1"}`,
		`{"individual":"case-8","window":0,"signature":{"nodes":["e1","e2","never-seen"],"weights":[3,1,1]}}`,
		`{"individual":"case-8","window":-4,"signature":{"nodes":["10.0.0.9","e1"],"weights":[1,1e-308]}}`,
		`{"individual":"case-8","window":0,"signature":{"nodes":["n1","n2","n3"],"weights":[0,-1,0]}}`,
		`{"individual":"case-8","window":0,"signature":{"nodes":["n1","n1"],"weights":[2,-2]}}`,
		`{"individual":"case-8","window":0,"signature":{"nodes":["n1","n1"],"weights":[1e308,1e308]}}`,
		`{"individual":"case-8","window":0,"signature":{"nodes":["n1"],"weights":[1,2]}}`,
		`{"individual":"case-8","signature":{"nodes":["n1"],"weights":[1]}}`,
		`{"individual":"","label":"10.0.0.1"}`,
		`{"individual":"x","label":"10.0.0.1","signature":{"nodes":[],"weights":[]},"window":0}`,
		`{"individual":"x","label":"10.0.0.1","extra":1}`,
		`{"individual":"x","label":"10.0.0.1"} {}`,
		`{}`,
		`]`,
	} {
		f.Add([]byte(body))
	}
	srv := watchNode(f, f.TempDir())
	defer srv.Abort()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := stateOf(t, srv)
		rec := postWatch(srv, body)
		switch rec.Code {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
		if after := stateOf(t, srv); after != before {
			t.Fatalf("%q: refused with %d, yet the node changed: %+v -> %+v", body, rec.Code, before, after)
		}
	})
}
