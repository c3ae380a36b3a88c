package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphsig/internal/budget"
)

// takesBody reads body through read and reports whether it was taken
// whole; when it was, encoding/json must decode it to the same value —
// a request as DecodeJSON does (unknown fields refused, nothing after
// the value), a response as the client's json.Decoder does.
func takesBody[T any](t *testing.T, body []byte, read func(*layout) T, request bool) bool {
	t.Helper()
	l := layout{b: body, ok: true}
	got := read(&l)
	if !l.end() {
		return false
	}
	var want T
	var err error
	if request {
		err = decodeStrict(bytes.NewReader(body), &want)
	} else {
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	}
	if err != nil {
		t.Fatalf("the layout takes %q, encoding/json refuses it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: the layout reads\n%+v\nencoding/json\n%+v", body, got, want)
	}
	return true
}

// checkBodies holds each of the five readers to encoding/json over body
// and reports which of them took it.
func checkBodies(t *testing.T, body []byte) (taken []string) {
	t.Helper()
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"SearchRequest", takesBody(t, body, (*layout).searchRequest, true)},
		{"BatchSearchRequest", takesBody(t, body, (*layout).batchSearchRequest, true)},
		{"SearchResponse", takesBody(t, body, (*layout).searchResponse, false)},
		{"BatchSearchResponse", takesBody(t, body, (*layout).batchSearchResponse, false)},
		{"HistoryResponse", takesBody(t, body, (*layout).historyResponse, false)},
	} {
		if c.ok {
			taken = append(taken, c.name)
		}
	}
	return taken
}

// encode is v as json.Encoder writes it, WriteJSON's trailing newline
// included.
func encode(tb testing.TB, v any) []byte {
	b, err := encoder(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// hitsOf is n hits of datagen-shaped labels at distances that print
// with many digits.
func hitsOf(n int) []SearchHitJSON {
	hits := make([]SearchHitJSON, n)
	for i := range hits {
		hits[i] = SearchHitJSON{Label: fmt.Sprintf("10.0.%d.%d", i/250, i%250), Window: 40 - i%12, Dist: float64(i+1) / 3.7}
	}
	return hits
}

// signatureOf is a signature of n members.
func signatureOf(n int) *SignatureJSON {
	s := &SignatureJSON{Nodes: make([]string, n), Weights: make([]float64, n)}
	for i := range s.Nodes {
		s.Nodes[i], s.Weights[i] = fmt.Sprintf("198.18.%d.%d", i/250, i%250), float64(n-i)/7
	}
	return s
}

// searchBodies is one body of each type as this repository writes it:
// the requests as Client.doJSON marshals them, the responses as
// WriteJSON encodes them, a router's among them.
func searchBodies(tb testing.TB) map[string][]byte {
	one := SearchRequest{Signature: signatureOf(16), K: 10, LastWindows: 12, ExcludeLabel: "10.0.0.7", Debug: true}
	asOf := 3
	resolved := BatchSearchResult{Hits: hitsOf(2), Resolved: &HistoryEntryJSON{Window: 4, Scheme: "tt", Signature: *signatureOf(5)}}
	none := FailedSlot(fmt.Errorf("label %q has no archived signature", "x"))
	none.Resolved = &HistoryEntryJSON{Window: -1}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return map[string][]byte{
		"SearchRequest":       marshal(SearchRequest{Label: "10.0.0.1", K: 10, MaxDist: 0.95, Distance: "dice", LastWindows: 4}),
		"BatchSearchRequest":  marshal(BatchSearchRequest{Distance: "jaccard", Queries: []SearchRequest{one, {Label: "10.0.0.2"}, {Label: "10.0.0.3", K: 10, AsOf: &asOf}}}),
		"SearchResponse":      encode(tb, SearchResponse{Distance: "jaccard", Hits: hitsOf(10), Coverage: &Coverage{ShardsOK: 2, ShardsTotal: 2}}),
		"BatchSearchResponse": encode(tb, BatchSearchResponse{Distance: "jaccard", Results: []BatchSearchResult{{Hits: hitsOf(10)}, resolved, none}, Debug: &SearchDebugJSON{TraceID: "00ab", Micros: 412, Probes: 9600}}),
		"HistoryResponse":     encode(tb, HistoryResponse{Label: "10.0.0.1", History: []HistoryEntryJSON{{Window: 3, Scheme: "tt", Signature: *signatureOf(12)}, {Window: 4, Scheme: "tt", Signature: SignatureJSON{Nodes: []string{}}}}, Truncated: true}),
	}
}

// TestSearchBodiesLayout: each body of searchBodies is taken whole by
// its own type's reader and no other, and leaves the layout after each
// edit of departures.
func TestSearchBodiesLayout(t *testing.T) {
	departures := [][2]string{
		{`{"`, `{ "`},            // whitespace
		{`":`, `": `},            // whitespace
		{`,"`, `, "`},            // whitespace
		{`{"`, `{"x":1,"`},       // an unknown key
		{`{"`, `{"Label":"a","`}, // a key spelt otherwise
		{`"`, `"\u00`},           // a bad escape
	}
	for name, body := range searchBodies(t) {
		if taken := checkBodies(t, body); len(taken) != 1 || taken[0] != name {
			t.Errorf("a %s body is taken by %v: %s", name, taken, body)
		}
		for _, e := range departures {
			edited := []byte(strings.Replace(string(body), e[0], e[1], 1))
			if taken := checkBodies(t, edited); len(taken) != 0 {
				t.Errorf("%s %q → %q: taken by %v", name, e[0], e[1], taken)
			}
		}
	}
	for _, body := range []string{
		// Another key order, a repeated key, null for a value.
		`{"k":3,"label":"a"}`, `{"label":"a","label":"b"}`, `{"label":null}`, `{"signature":null}`,
		// Numbers outside the grammar or the type.
		`{"k":01}`, `{"k":+1}`, `{"k":1.0}`, `{"k":1e2}`, `{"k":9223372036854775808}`,
		`{"max_dist":1.}`, `{"max_dist":.5}`, `{"max_dist":1e400}`, `{"max_dist":-}`, `{"max_dist":1e}`,
		`{"label":"a","as_of":1.5}`, `{"label":"a","as_of":null}`, `{"as_of":1,"label":"a"}`,
		`{"distance":"d","results":[{"hits":[],"resolved":{"scheme":"","window":2,"signature":{"nodes":[],"weights":[]}}}]}`,
		// A router's stale shards and per-shard debug array.
		`{"distance":"d","hits":[],"shards_ok":1,"shards_total":2,"stale_shards":[{"shard":0,"gen":1,"offset":2}]}`,
		`{"distance":"d","hits":[],"shards_ok":1,"shards_total":1,"debug":[{"shard":0,"micros":3,"probes":4}]}`,
		// Trailing bytes.
		`{"label":"a"}x`, `{"label":"a"}{}`,
	} {
		if taken := checkBodies(t, []byte(body)); len(taken) != 0 {
			t.Errorf("%s: taken by %v", body, taken)
		}
	}
	for _, c := range []struct{ body, by string }{
		{`{}`, "SearchRequest"},
		{`{"max_dist":-0,"debug":false}`, "SearchRequest"},
		{`{"label":"a","as_of":-1}`, "SearchRequest"},
		{"{\"label\":\"a\\\"b\\u00e9\\ud83d\\ude00\xc3\xa9\xff\"}\n\t ", "SearchRequest"},
		{`{"queries":[]}`, "BatchSearchRequest"},
		{`{"queries":null,"debug":true}`, "BatchSearchRequest"},
		{`{"distance":"d","hits":null}`, "SearchResponse"},
		{`{"distance":"d","hits":[{"label":"a","window":-0,"dist":1E+2}]}`, "SearchResponse"},
		{`{"distance":"d","results":[{"hits":null,"error":""}],"shards_ok":0,"shards_total":0,"trace_id":"t"}`, "BatchSearchResponse"},
		{`{"distance":"d","results":[{"hits":[],"resolved":{"window":2,"scheme":"","signature":{"nodes":[],"weights":null}}}]}`, "BatchSearchResponse"},
		{`{"label":"a","history":null,"truncated":false}`, "HistoryResponse"},
	} {
		if taken := checkBodies(t, []byte(c.body)); len(taken) != 1 || taken[0] != c.by {
			t.Errorf("%s: taken by %v, want %s", c.body, taken, c.by)
		}
	}
}

// TestSearchBodiesFallback: a search route answers a body that leaves
// the layout, or one too long to read, with DecodeJSON's status and
// text, and counts it in GeneralBodies.
func TestSearchBodiesFallback(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /laid-out", func(w http.ResponseWriter, r *http.Request) {
		var q SearchRequest
		if readLaidOut(w, r, &q, (*layout).searchRequest) {
			WriteJSON(w, http.StatusOK, q)
		}
	})
	mux.HandleFunc("POST /general", func(w http.ResponseWriter, r *http.Request) {
		var q SearchRequest
		if DecodeJSON(w, r, &q) {
			WriteJSON(w, http.StatusOK, q)
		}
	})
	long := `{"label":"a"}` + strings.Repeat(" ", MaxBodyBytes)
	for _, c := range []struct {
		body     string
		declared bool
		general  int64
	}{
		{`{"label":"a","k":3}`, true, 0},
		{`{"label":"a", "k":3}`, true, 1},
		{`{"lable":"a"}`, true, 1},
		{`{"label":"a"} {}`, true, 1},
		{`{"label":`, false, 1},
		{long, true, 1},
		{long, false, 1},
	} {
		var answers [2]string
		before := GeneralBodies()
		for i, path := range []string{"/laid-out", "/general"} {
			r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(c.body))
			if !c.declared {
				r.ContentLength = -1
			}
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, r)
			answers[i] = fmt.Sprintf("%d %s", w.Code, w.Body)
		}
		if answers[0] != answers[1] {
			t.Errorf("%.40q: laid out %s, general %s", c.body, answers[0], answers[1])
		}
		if n := GeneralBodies() - before; n != c.general {
			t.Errorf("%.40q: %d bodies counted general, want %d", c.body, n, c.general)
		}
	}
}

// TestSearchBodiesAllocBudget: decoding a laid-out search response
// allocates once a hit for its label and a constant, at 10 hits and at
// 1 000 (a slot of 10, 30 slots of 10 — once a slot too —, a slot of
// 1 000); a signature batch request once a member for its label and a
// constant, at 16 members and at 1 000. Through encoding/json the 10-hit
// body took 34 and the 16-member one 48 (BenchmarkSearchCodec).
func TestSearchBodiesAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const constant = 8
	slots := func(n, hits int) []BatchSearchResult {
		out := make([]BatchSearchResult, n)
		for i := range out {
			out[i].Hits = hitsOf(hits)
		}
		return out
	}
	response := func(l *layout) bool { l.batchSearchResponse(); return l.end() }
	request := func(l *layout) bool { l.batchSearchRequest(); return l.end() }
	for _, c := range []struct {
		name  string
		body  []byte
		items int
		read  func(*layout) bool
	}{
		{"a 10-hit response", encode(t, BatchSearchResponse{Distance: "jaccard", Results: slots(1, 10)}), 10, response},
		{"a 1 000-hit response", encode(t, BatchSearchResponse{Distance: "jaccard", Results: slots(1, 1000)}), 1000, response},
		{"a 30-slot response", encode(t, BatchSearchResponse{Distance: "jaccard", Results: slots(30, 10)}), 30*10 + 30, response},
		{"a 16-member request", encode(t, BatchSearchRequest{Queries: []SearchRequest{{Signature: signatureOf(16), K: 10}}}), 16, request},
		{"a 1 000-member request", encode(t, BatchSearchRequest{Queries: []SearchRequest{{Signature: signatureOf(1000), K: 10}}}), 1000, request},
	} {
		allocs, _ := budget.PerRun(20, func() {
			if l := (layout{b: c.body, ok: true}); !c.read(&l) {
				t.Fatalf("%s left the layout", c.name)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > float64(c.items+constant) {
			t.Errorf("%s allocates %.0f times; budget %d", c.name, allocs, c.items+constant)
		}
	}
}

// BenchmarkSearchCodec decodes the bodies of a routed search through
// their layout and through encoding/json, as the client and the routes
// did before: a 10-hit one-slot batch response (what a shard answers the
// router), a 32-slot response of 10 hits each, and the one-slot
// signature batch of 16 members the router sends its shards, read from
// its request by the route. One op is one body.
func BenchmarkSearchCodec(b *testing.B) {
	slots := make([]BatchSearchResult, 32)
	for i := range slots {
		slots[i].Hits = hitsOf(10)
	}
	response := func(body []byte) func() error {
		return func() error {
			var out BatchSearchResponse
			return decodeLaidOut(&out, (*layout).batchSearchResponse)(&http.Response{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))})
		}
	}
	general := func(body []byte) func() error {
		return func() error {
			var out BatchSearchResponse
			return json.NewDecoder(bytes.NewReader(body)).Decode(&out)
		}
	}
	hit10 := encode(b, BatchSearchResponse{Distance: "jaccard", Results: slots[:1]})
	hit320 := encode(b, BatchSearchResponse{Distance: "jaccard", Results: slots})
	request, err := json.Marshal(BatchSearchRequest{Queries: []SearchRequest{{Signature: signatureOf(16), K: 10, LastWindows: 12, ExcludeLabel: "10.0.0.7"}}})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	post := func(body []byte) *http.Request {
		return &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
	}
	for _, c := range []struct {
		name string
		body []byte
		run  func() error
	}{
		{"response10/layout", hit10, response(hit10)},
		{"response10/json", hit10, general(hit10)},
		{"response32x10/layout", hit320, response(hit320)},
		{"response32x10/json", hit320, general(hit320)},
		{"request1/layout", request, func() error {
			var q BatchSearchRequest
			if !readLaidOut(w, post(request), &q, (*layout).batchSearchRequest) {
				return fmt.Errorf("refused: %s", w.Body)
			}
			return nil
		}},
		{"request1/json", request, func() error {
			var q BatchSearchRequest
			if !DecodeJSON(w, post(request), &q) {
				return fmt.Errorf("refused: %s", w.Body)
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzSearchBodies holds the five search and history readers to
// encoding/json. The fuzzed body goes through each reader, and a body
// one takes must decode to the same value through encoding/json. A value
// of each type made of the other arguments goes through json.Marshal
// (the requests) or json.Encoder (the responses), and its own reader
// must take the bytes whole.
func FuzzSearchBodies(f *testing.F) {
	for _, body := range searchBodies(f) {
		f.Add(body, "10.0.0.1", int64(3), 0.25, int64(10), uint8(0))
	}
	for i, body := range []string{
		`{"label":"a","k":01}`, `{"label":"a","k":+1}`, `{"max_dist":1.}`, `{"max_dist":.5}`, `{"max_dist":1e400}`,
		`{"max_dist":-0}`, `{"label":"a\"b\\cé <>&"}`, `{"label":null}`, `{"label":"a","label":"b"}`,
		`{"distance":"d","hits":[{"label":"a","window":01,"dist":0}]}`, `{"distance":"d","hits":[{"label":"a","window":1,"dist":-0}]}`,
		`{"distance":"d","hits":[{"label":"a","window":1,"dist":1e400}]}`, `{"distance":"d","hits":null,"hits":[]}`,
		`{"distance":"d","results":[{"hits":[],"error":"label \"x\" has no archived signature"}]}`,
		`{"distance":"d","results":[{"hits":null,"error":"e","resolved":{"window":-1,"scheme":"","signature":{"nodes":null,"weights":null}}}]}`,
		`{"label":"a","as_of":-1}`, `{"label":"a","as_of":01}`, `{"label":"a","as_of":1e2}`,
		`{"label":"a","history":[{"window":1,"scheme":"tt","signature":{"nodes":null,"weights":[1e-7]}}]}`,
	} {
		f.Add([]byte(body), "a\"b\\<>& \xff", int64(-1)<<62, math.Copysign(0, -1)*float64(i), int64(i), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, body []byte, label string, window int64, dist float64, k int64, flags uint8) {
		checkBodies(t, body)

		sig := &SignatureJSON{Nodes: []string{label, "e1"}, Weights: []float64{dist, 1}}
		hits := []SearchHitJSON{{Label: label, Window: int(window), Dist: dist}, {Label: "e", Window: int(k), Dist: 1}}
		if flags&1 != 0 {
			sig.Nodes, sig.Weights, hits = []string{}, nil, nil
		}
		q := SearchRequest{Label: label, K: int(k), MaxDist: dist, Distance: label, LastWindows: int(window), ExcludeLabel: label, Debug: flags&2 != 0}
		if flags&4 != 0 {
			q.Signature = sig
		}
		var resolved *HistoryEntryJSON
		if asOf := int(window); k&1 != 0 {
			q.AsOf = &asOf
			resolved = &HistoryEntryJSON{Window: int(k), Scheme: label, Signature: *sig}
		}
		var cov *Coverage
		if flags&8 != 0 {
			cov = &Coverage{ShardsOK: int(k), ShardsTotal: int(window)}
			if flags&16 != 0 {
				cov.TraceID = label
			}
		}
		var dbg *SearchDebugJSON
		if flags&32 != 0 {
			dbg = &SearchDebugJSON{Micros: k, Probes: int(window)}
			if flags&64 != 0 {
				dbg.TraceID = label
			}
		}
		for _, c := range []struct {
			name string
			v    any
			enc  func(any) ([]byte, error)
		}{
			{"SearchRequest", q, json.Marshal},
			{"BatchSearchRequest", BatchSearchRequest{Distance: label, Queries: []SearchRequest{q, {}}, Debug: flags&128 != 0}, json.Marshal},
			{"SearchResponse", SearchResponse{Distance: label, Hits: hits, Coverage: cov, Debug: dbg}, encoder},
			{"BatchSearchResponse", BatchSearchResponse{Distance: label, Results: []BatchSearchResult{{Hits: hits}, {Error: label, Resolved: resolved}}, Coverage: cov, Debug: dbg}, encoder},
			{"HistoryResponse", HistoryResponse{Label: label, History: []HistoryEntryJSON{{Window: int(window), Scheme: label, Signature: *sig}}, Truncated: flags&128 != 0}, encoder},
		} {
			b, err := c.enc(c.v)
			if err != nil {
				continue // a NaN or infinite distance
			}
			if taken := checkBodies(t, b); !slices.Contains(taken, c.name) {
				t.Fatalf("a %s as encoding/json writes it is taken by %v: %s", c.name, taken, b)
			}
		}
	})
}

// encoder is json.NewEncoder(…).Encode, WriteJSON's writer, into bytes.
func encoder(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}
