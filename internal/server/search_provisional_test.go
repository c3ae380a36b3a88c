package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/netflow"
)

// provisionalNode is a node with two closed windows of 24 hosts, each
// talking to four of 12 externals with weights of their own, one window
// hot and one in a segment, and its snapshot saved into dir ("" for
// none).
func provisionalNode(t *testing.T, dir string) *Server {
	t.Helper()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	cfg.StoreCapacity, cfg.SegmentDir = 1, filepath.Join(t.TempDir(), "seg")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Abort)
	var records []netflow.Record
	for w := 0; w < 2; w++ {
		for h := 0; h < 24; h++ {
			for i := 0; i < 4; i++ {
				at := time.Duration(w)*time.Hour + time.Duration(h*4+i)*time.Second
				records = append(records, flowAt(fmt.Sprintf("10.0.0.%d", h), fmt.Sprintf("e%d", (h*5+i*3+w)%12), at, 1+(h+i+w)%3))
			}
		}
	}
	records = append(records, flowAt("10.0.0.0", "e0", 2*time.Hour, 1))
	if res := mustIngest(t, srv, records); res.WindowsClosed != 2 || srv.Store().SegmentWindows() != 1 {
		t.Fatalf("windows 0 and 1 did not close, one of them cold: %+v", res)
	}
	return srv
}

// post sends body to path on srv and returns the status and the body.
func post(srv *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestSearchInternsNoLabel: a search by inline signature resolves the
// labels the node has never seen to the NodeIDs interning would give
// them, without interning them. A search that succeeds and one refused
// with a 400 leave the universe's size, and so the next snapshot's
// bytes, as they were; and under every distance, over a hot window and
// a cold one, the hits are those of a node on which the labels were
// interned, in the order of their first appearance across the request.
func TestSearchInternsNoLabel(t *testing.T) {
	single := SearchRequest{K: 6, MaxDist: 1, Signature: &SignatureJSON{
		Nodes: []string{"e3", "new-a", "e7", "new-b", "new-a"}, Weights: []float64{2, 1, 1, 1, 1}}}
	batch := BatchSearchRequest{Queries: []SearchRequest{
		{K: 4, MaxDist: 1, Signature: &SignatureJSON{Nodes: []string{"new-c", "e1"}, Weights: []float64{1, 1}}},
		{K: 3, Label: "10.0.0.5"},
		{K: 5, MaxDist: 1, Signature: &SignatureJSON{Nodes: []string{"new-b"}, Weights: []float64{0}}}, // refused slot
		{K: 5, MaxDist: 1, Signature: &SignatureJSON{Nodes: []string{"new-a", "e2", "new-c", "e4"}, Weights: []float64{1, 1, 1, 2}}},
	}}
	refused := SearchRequest{Signature: &SignatureJSON{Nodes: []string{"new-z", "e1"}, Weights: []float64{1}}}

	t.Run("universe", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "snap")
		srv := provisionalNode(t, dir)
		before := srv.Store().Universe().Size()
		for _, c := range []struct {
			path string
			body any
			code int
		}{
			{"/v1/search", single, http.StatusOK},
			{"/v1/search/batch", batch, http.StatusOK},
			{"/v1/search", refused, http.StatusBadRequest},
			{"/v1/search/batch", BatchSearchRequest{Queries: []SearchRequest{refused}}, http.StatusOK},
		} {
			if code, body := post(srv, c.path, mustMarshal(t, c.body)); code != c.code {
				t.Fatalf("%s: status %d, want %d: %s", c.path, code, c.code, body)
			}
			if after := srv.Store().Universe().Size(); after != before {
				t.Fatalf("%s: the universe grew from %d to %d labels", c.path, before, after)
			}
		}
		ref := filepath.Join(t.TempDir(), "snap")
		untouched := provisionalNode(t, ref)
		for _, n := range []*Server{srv, untouched} {
			if err := n.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := dirFiles(t, dir), dirFiles(t, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("the snapshot after the searches differs from one without them")
		}
	})

	t.Run("hits", func(t *testing.T) {
		for _, d := range core.ExtendedDistances() {
			for _, c := range []struct {
				path   string
				body   any
				labels []string // the request's unknown labels, first appearance first
			}{
				{"/v1/search", withDistance(single, d.Name()), []string{"new-a", "new-b"}},
				{"/v1/search/batch", BatchSearchRequest{Distance: d.Name(), Queries: batch.Queries}, []string{"new-c", "new-b", "new-a"}},
			} {
				body := mustMarshal(t, c.body)
				srv := provisionalNode(t, "")
				code, got := post(srv, c.path, body)
				interned := provisionalNode(t, "")
				u := interned.Store().Universe()
				for _, l := range c.labels {
					u.MustIntern(l, interned.classifier()(l))
				}
				wantCode, want := post(interned, c.path, body)
				if code != http.StatusOK || wantCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("%s %s: status %d\n %s\nwant, with the labels interned: %d\n %s", d.Name(), c.path, code, got, wantCode, want)
				}
			}
		}
	})
}

func withDistance(q SearchRequest, name string) SearchRequest {
	q.Distance = name
	return q
}

// dirFiles reads every file of dir by name (a node's log lies beside
// its snapshot directory, not in it).
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
