package cluster

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/server"
)

// seriesTopology boots one node of every kind, configured so that every
// metric family registers: a replicating primary with a snapshot and a
// segment directory, its follower — caught up on a small ingest, so it
// serves — and a router probing them. It returns the three base URLs in
// that order.
func seriesTopology(t *testing.T) []string {
	t.Helper()
	gcfg := datagen.DefaultEnterpriseConfig(5)
	gcfg.LocalHosts = 12
	gcfg.ExternalHosts = 150
	gcfg.Windows = 1
	gcfg.MultiusageIndividuals = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pts := newTestNode(t, server.Config{
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 4,
		SnapshotDir:   t.TempDir(),
		SegmentDir:    t.TempDir(),
		Replicate:     true,
		Node:          &server.Identity{Role: "primary"},
	})
	f, err := NewFollower(FollowerConfig{
		Primary:       []string{pts.URL},
		Stream:        testStreamConfig(gcfg),
		StoreCapacity: 4,
		Poll:          5 * time.Millisecond,
		Node:          &server.Identity{Role: "follower"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	fts := httptest.NewServer(f.FollowerHandler())
	t.Cleanup(fts.Close)
	pc := server.NewClient(pts.URL)
	if _, err := pc.Ingest(data.Records); err != nil {
		t.Fatal(err)
	}
	catchUpToPrimary(t, f, pc)
	rt, err := NewRouter(Config{
		Shards:    [][]string{{pts.URL}},
		Followers: [][]string{{fts.URL}},
		Health:    &HealthConfig{Interval: time.Hour, FailThreshold: 3, Timeout: 5 * time.Second},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return []string{pts.URL, fts.URL, rts.URL}
}

// registration finds a metric family's name where a registry call
// registers it.
var registration = regexp.MustCompile(`(?:Counter|Gauge|GaugeFunc|Histogram|HistogramWith|HistogramVec|CounterVec|GaugeVec)\(\s*"([A-Za-z_:][A-Za-z0-9_:]*)"`)

// TestMetricSeriesHaveReaders is the series-reader gate: every family a
// node, a follower or a router exports must be named — itself or as
// its _bucket/_sum/_count series — by some file of the module other
// than the one registering it: a test, a tool, a doc, the benchmark, the
// Makefile or a script. A series nothing reads is deleted, not kept.
// The change log and planning documents do not count as readers, since
// they name series to record their removal.
func TestMetricSeriesHaveReaders(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("series_test.go")
	if err != nil {
		t.Fatal(err)
	}
	notReaders := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "PAPERS.md": true, "SNIPPETS.md": true}
	mentions := make(map[string]map[string]bool) // word → files naming it
	registers := make(map[string]map[string]bool)
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" || strings.HasPrefix(name, ".bench") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		name := d.Name()
		readable := strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".md") || name == "Makefile" ||
			strings.HasPrefix(rel, "scripts"+string(filepath.Separator))
		if !readable || notReaders[rel] || path == self {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range word.FindAllString(string(body), -1) {
			if mentions[w] == nil {
				mentions[w] = make(map[string]bool)
			}
			mentions[w][rel] = true
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			for _, m := range registration.FindAllStringSubmatch(string(body), -1) {
				if registers[m[1]] == nil {
					registers[m[1]] = make(map[string]bool)
				}
				registers[m[1]][rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, base := range seriesTopology(t) {
		fams, err := server.NewClient(base).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			seen[f.Name] = true
		}
	}
	var unread []string
	for name := range seen {
		if len(registers[name]) == 0 {
			t.Errorf("family %s is exported but no registry call names it", name)
		}
		read := false
		for _, w := range []string{name, name + "_bucket", name + "_sum", name + "_count"} {
			for file := range mentions[w] {
				read = read || !registers[name][file]
			}
		}
		if !read {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Fatalf("%d exported series are named only where they are registered; delete them or read them: %s",
			len(unread), strings.Join(unread, ", "))
	}
	if len(seen) < 50 {
		t.Fatalf("only %d families exported; the topology did not register the stack", len(seen))
	}
}

// TestTracesParam: the node and the router answer GET /v1/traces
// through one handler — a bad ?n= is a 400 on both, and ?n=1 answers
// at most one trace.
func TestTracesParam(t *testing.T) {
	urls := seriesTopology(t)
	for _, node := range []struct{ name, base string }{{"node", urls[0]}, {"router", urls[2]}} {
		// Leave a few traces in each ring first; whether the searches
		// find anything does not matter.
		for i := 0; i < 3; i++ {
			_, _ = server.NewClient(node.base).Search(server.SearchRequest{Label: datagen.LocalLabel(i)})
		}
		for _, tc := range []struct {
			query  string
			status int
		}{{"?n=-1", http.StatusBadRequest}, {"?n=x", http.StatusBadRequest}, {"?n=1", http.StatusOK}} {
			resp, err := http.Get(node.base + "/v1/traces" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s: GET /v1/traces%s = %d, want %d", node.name, tc.query, resp.StatusCode, tc.status)
			}
		}
		got, err := server.NewClient(node.base).Traces(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Traces) > 1 || got.Total == 0 {
			t.Errorf("%s: ?n=1 answered %d traces of %d", node.name, len(got.Traces), got.Total)
		}
	}
}
