package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
)

// The search and history bodies — SearchRequest and BatchSearchRequest
// on the node's and the router's routes, SearchResponse,
// BatchSearchResponse and HistoryResponse in the client the router asks
// its shards with — are first read as encoding/json writes them, by a
// layout cursor. At the first byte that departs from that layout the
// same bytes go to encoding/json, as they did before (DESIGN.md §7,
// "The laid-out search bodies").

// generalBodies counts the bodies readLaidOut, decodeLaidOut and
// generalFlows handed to encoding/json. It is a process-wide count rather
// than a field of Server or Client because a router's shard clients are
// its own.
var generalBodies atomic.Int64

// GeneralBodies is how many flows, search and history bodies this
// process has read through encoding/json rather than in their own
// format: a JSON flows body, a search or history body that left its
// layout. Every body this repository writes on those routes is in its
// own format, so tests hold it still across the route table.
func GeneralBodies() int64 { return generalBodies.Load() }

// readLaidOut reads a search route's request body into v, as DecodeJSON
// reads it and with its answers: read lays the body out, and a body that
// departs from the layout, or could not be read whole, goes to
// DecodeJSON's decoder as the bytes that came and the error that ended
// them.
func readLaidOut[T any](w http.ResponseWriter, r *http.Request, v *T, read func(*layout) T) bool {
	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, MaxBodyBytes)
	if got, ok := takeLaidOut(body, err, read); ok {
		*v = got
		return true
	}
	if err = decodeStrict(replay(body, err), v); err != nil {
		WriteError(w, bodyStatus(err), "bad request body: %v", err)
		return false
	}
	return true
}

// decodeLaidOut is do's body decoder for a response read laid out; one
// that departs from the layout, or could not be read whole, goes to
// json.Decoder as the bytes that came and the error that ended them.
func decodeLaidOut[T any](out *T, read func(*layout) T) func(*http.Response) error {
	return func(resp *http.Response) error {
		// No limit: json.Decoder set none on a response.
		body, err := readBody(resp.Body, resp.ContentLength, math.MaxInt64-1)
		if got, ok := takeLaidOut(body, err, read); ok {
			*out = got
			return nil
		}
		return json.NewDecoder(replay(body, err)).Decode(out)
	}
}

// takeLaidOut is body as read reads it, when the body was read whole (err
// is nil) and read takes all of it; any other body is counted general.
func takeLaidOut[T any](body []byte, err error, read func(*layout) T) (T, bool) {
	if err == nil {
		l := layout{b: body, ok: true}
		if got := read(&l); l.end() {
			return got, true
		}
	}
	generalBodies.Add(1)
	var zero T
	return zero, false
}

// replay reads body, then fails with err, or ends with io.EOF when err is nil.
func replay(body []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), failedReader{err})
}

type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// layout is a cursor that reads a body only as this repository's
// writer lays one out. ok turns false at the first byte that departs
// from that, and every read after it is void.
type layout struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes s if it is next.
func (l *layout) lit(s string) bool {
	if l.ok && len(l.b)-l.i >= len(s) && string(l.b[l.i:l.i+len(s)]) == s {
		l.i += len(s)
		return true
	}
	return false
}

func (l *layout) want(s string) {
	if !l.lit(s) {
		l.ok = false
	}
}

// end reports whether the value read was laid out and nothing but
// whitespace follows it: the newline json.Encoder writes, say.
func (l *layout) end() bool {
	for ; l.i < len(l.b); l.i++ {
		if c := l.b[l.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return l.ok
}

// key consumes the member key k, written with its leading comma
// (`,"label":`), if it is next; the object's first member, while *first
// is set, comes without the comma.
func (l *layout) key(k string, first *bool) bool {
	if !*first {
		return l.lit(k)
	}
	if l.lit(k[1:]) {
		*first = false
		return true
	}
	return false
}

// number reads a token of the JSON number grammar — an optional minus,
// an integer part without a leading zero, and, unless integer, an
// optional fraction and exponent — and returns it.
func (l *layout) number(integer bool) []byte {
	b, i := l.b, l.i
	digits := func() bool {
		at := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > at
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		l.ok = false
		return nil
	}
	if !integer && i < len(b) && b[i] == '.' {
		if i++; !digits() {
			l.ok = false
			return nil
		}
	}
	if !integer && i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			l.ok = false
			return nil
		}
	}
	tok := b[l.i:i]
	l.i = i
	return tok
}

// int reads an integer that a signed integer of bits bits holds, as
// encoding/json reads one into it. A fraction or exponent after it
// leaves the layout: encoding/json refuses it.
func (l *layout) int(bits int) int64 {
	if !l.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(l.number(true)), 10, bits)
	if err != nil {
		l.ok = false
	}
	return n
}

// float reads a number as encoding/json reads one into a float64; one
// out of its range leaves the layout.
func (l *layout) float() float64 {
	if !l.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(l.number(false)), 64)
	if err != nil {
		l.ok = false
	}
	return f
}

// text reads a string as encoding/json reads one: a plain one, of
// ASCII without escapes, as it is, and one with an escape or a byte
// outside ASCII through json.Unmarshal of its token — a failed slot's
// error quotes its label.
func (l *layout) text() string {
	b, i := l.b, l.i
	if !l.ok || i >= len(b) || b[i] != '"' {
		l.ok = false
		return ""
	}
	plain := true
	for i++; i < len(b) && b[i] != '"'; i++ {
		switch c := b[i]; {
		case c < 0x20:
			l.ok = false
			return ""
		case c == '\\':
			plain = false
			i++ // the escaped byte
		case c >= 0x80:
			plain = false
		}
	}
	if i >= len(b) {
		l.ok = false
		return ""
	}
	tok := b[l.i : i+1]
	l.i = i + 1
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	if json.Unmarshal(tok, &s) != nil {
		l.ok = false
	}
	return s
}

func (l *layout) bool() bool {
	if l.lit("true") {
		return true
	}
	l.want("false")
	return false
}

// array reads an array of elements read by elem, or null for a nil
// slice, as encoding/json reads either, into a slice of capacity n.
func array[T any](l *layout, n int, elem func(*T)) []T {
	if l.lit("null") {
		return nil
	}
	l.want("[")
	if !l.ok {
		return nil
	}
	out := make([]T, 0, n)
	for !l.lit("]") && l.ok {
		if len(out) > 0 {
			l.want(",")
		}
		out = append(out, *new(T))
		elem(&out[len(out)-1])
	}
	return out
}

// countBytes bounds the bytes an array's size is counted over, and so
// what a body that only looks like a long array can have allocated
// before it is read: a slice of at most 64 Ki elements, where 64 KiB
// holds some 1 300 hits.
const countBytes = 64 << 10

// ahead is the next countBytes of the body.
func (l *layout) ahead() []byte { return l.b[l.i:min(len(l.b), l.i+countBytes)] }

// count is how many times sep occurs before the next `]`, plus one: the
// elements of an array of scalars or of hits, when sep is what separates
// them. A string may hold either: a count that is not exact costs memory
// or a regrowth, not elements.
func (l *layout) count(sep string) int {
	rest := l.ahead()
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte(sep)) + 1
}

// keys is how many times the key k, with the brace that opens its
// object, occurs ahead: exactly the elements of an array of such
// objects when no other object has k first, for a quote within a string
// is escaped.
func (l *layout) keys(k string) int { return bytes.Count(l.ahead(), []byte(k)) }

func (l *layout) signature(s *SignatureJSON) {
	l.want(`{"nodes":`)
	s.Nodes = array(l, l.count(","), func(n *string) { *n = l.text() })
	l.want(`,"weights":`)
	s.Weights = array(l, l.count(","), func(f *float64) { *f = l.float() })
	l.want("}")
}

// searchRequest reads a SearchRequest as json.Marshal writes one: its
// omitempty members in their declared order, each present or not.
func (l *layout) searchRequest() (q SearchRequest) {
	l.want("{")
	first := true
	if l.key(`,"label":`, &first) {
		q.Label = l.text()
	}
	if l.key(`,"signature":`, &first) {
		q.Signature = new(SignatureJSON)
		l.signature(q.Signature)
	}
	if l.key(`,"k":`, &first) {
		q.K = int(l.int(strconv.IntSize))
	}
	if l.key(`,"max_dist":`, &first) {
		q.MaxDist = l.float()
	}
	if l.key(`,"distance":`, &first) {
		q.Distance = l.text()
	}
	if l.key(`,"last_windows":`, &first) {
		q.LastWindows = int(l.int(strconv.IntSize))
	}
	if l.key(`,"exclude_label":`, &first) {
		q.ExcludeLabel = l.text()
	}
	if l.key(`,"as_of":`, &first) {
		q.AsOf = new(int)
		*q.AsOf = int(l.int(strconv.IntSize))
	}
	if l.key(`,"debug":`, &first) {
		q.Debug = l.bool()
	}
	l.want("}")
	return q
}

func (l *layout) batchSearchRequest() (b BatchSearchRequest) {
	l.want("{")
	first := true
	if l.key(`,"distance":`, &first) {
		b.Distance = l.text()
	}
	if !l.key(`,"queries":`, &first) {
		l.ok = false
	}
	b.Queries = array(l, 1, func(q *SearchRequest) { *q = l.searchRequest() })
	if l.lit(`,"debug":`) {
		b.Debug = l.bool()
	}
	l.want("}")
	return b
}

func (l *layout) hits() []SearchHitJSON {
	return array(l, l.count(`},{`), func(h *SearchHitJSON) {
		l.want(`{"label":`)
		h.Label = l.text()
		l.want(`,"window":`)
		h.Window = int(l.int(strconv.IntSize))
		l.want(`,"dist":`)
		h.Dist = l.float()
		l.want("}")
	})
}

// tail reads what a search response holds after its hits or results:
// the router's coverage block without stale shards, and a node's debug
// block. Stale shards and the router's per-shard debug array leave the
// layout.
func (l *layout) tail(cov **Coverage, dbg **SearchDebugJSON) {
	if l.lit(`,"shards_ok":`) {
		c := &Coverage{ShardsOK: int(l.int(strconv.IntSize))}
		l.want(`,"shards_total":`)
		c.ShardsTotal = int(l.int(strconv.IntSize))
		if l.lit(`,"trace_id":`) {
			c.TraceID = l.text()
		}
		*cov = c
	}
	if l.lit(`,"debug":{`) {
		d := &SearchDebugJSON{}
		if l.lit(`"trace_id":`) {
			d.TraceID = l.text()
			l.want(",")
		}
		l.want(`"micros":`)
		d.Micros = l.int(64)
		l.want(`,"probes":`)
		d.Probes = int(l.int(strconv.IntSize))
		l.want("}")
		*dbg = d
	}
	l.want("}")
}

func (l *layout) searchResponse() (r SearchResponse) {
	l.want(`{"distance":`)
	r.Distance = l.text()
	l.want(`,"hits":`)
	r.Hits = l.hits()
	l.tail(&r.Coverage, &r.Debug)
	return r
}

func (l *layout) batchSearchResponse() (r BatchSearchResponse) {
	l.want(`{"distance":`)
	r.Distance = l.text()
	l.want(`,"results":`)
	r.Results = array(l, l.keys(`{"hits":`), func(s *BatchSearchResult) {
		l.want(`{"hits":`)
		s.Hits = l.hits()
		if l.lit(`,"error":`) {
			s.Error = l.text()
		}
		if l.lit(`,"resolved":`) {
			s.Resolved = new(HistoryEntryJSON)
			l.historyEntry(s.Resolved)
		}
		l.want("}")
	})
	l.tail(&r.Coverage, &r.Debug)
	return r
}

func (l *layout) historyEntry(e *HistoryEntryJSON) {
	l.want(`{"window":`)
	e.Window = int(l.int(strconv.IntSize))
	l.want(`,"scheme":`)
	e.Scheme = l.text()
	l.want(`,"signature":`)
	l.signature(&e.Signature)
	l.want("}")
}

func (l *layout) historyResponse() (r HistoryResponse) {
	l.want(`{"label":`)
	r.Label = l.text()
	l.want(`,"history":`)
	r.History = array(l, l.keys(`{"window":`), l.historyEntry)
	if l.lit(`,"truncated":`) {
		r.Truncated = l.bool()
	}
	l.want("}")
	return r
}
