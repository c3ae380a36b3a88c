package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"graphsig/internal/budget"
	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
)

// flowBatch is a 2 000-record datagen batch, the size of the end-to-end
// benchmark's ingest batches.
func flowBatch(tb testing.TB) []netflow.Record {
	tb.Helper()
	cfg := datagen.DefaultEnterpriseConfig(1)
	cfg.LocalHosts, cfg.ExternalHosts, cfg.Communities, cfg.Windows, cfg.MultiusageIndividuals = 80, 1000, 4, 1, 4
	data, err := datagen.GenerateEnterprise(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(data.Records) < 2000 {
		tb.Fatalf("datagen made %d records, want 2000", len(data.Records))
	}
	return data.Records[:2000]
}

// marshalFlows is the reference writer: json.Marshal over the schema.
func marshalFlows(batchID string, records []netflow.Record) ([]byte, error) {
	req := IngestRequest{Records: make([]RecordJSON, len(records)), BatchID: batchID}
	for i, r := range records {
		req.Records[i] = RecordToJSON(r)
	}
	return json.Marshal(req)
}

// oracleFlows is the reference reader: encoding/json with unknown fields
// refused, then each record's conversion.
func oracleFlows(body []byte) (string, []netflow.Record, error) {
	var req IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, err
	}
	recs := make([]netflow.Record, len(req.Records))
	for i, rj := range req.Records {
		var err error
		if recs[i], err = rj.record(); err != nil {
			return "", nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return req.BatchID, recs, nil
}

func sameRecords(a, b []netflow.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// exactKeys reports whether body, a valid JSON value, spells every key
// of the schema exactly and names "records" once: the bodies the reader
// must accept whenever encoding/json does.
func exactKeys(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	type frame struct{ object, keyNext bool }
	var stack []frame
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].keyNext = true
		}
	}
	records := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, keyNext: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			valueDone()
			continue
		}
		n := len(stack)
		if n == 0 || !stack[n-1].object || !stack[n-1].keyNext {
			valueDone()
			continue
		}
		stack[n-1].keyNext = false
		switch key := tok.(string); n {
		case 1:
			if key == "records" {
				records++
			} else if key != "batch_id" {
				return false
			}
		case 3:
			switch key {
			case "src", "dst", "start", "duration_ms", "sessions", "bytes", "packets", "proto":
			default:
				return false
			}
		}
		if records > 1 {
			return false
		}
	}
}

// checkReader holds ReadFlows's decoding to the reference on one body:
// whatever it accepts the reference accepts, with the same batch ID and
// records, and it accepts whatever the reference does that has exact
// keys and nothing after the value. Its runs are held to one run at a
// threshold low enough that any body of a few records is split.
func checkReader(t *testing.T, body []byte) {
	t.Helper()
	checkRuns(t, body, 4, 32)
	id, recs, err := decodeFlows(body)
	wantID, want, wantErr := oracleFlows(body)
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("accepted %q, which the reference refuses: %v", body, wantErr)
	case err == nil && (id != wantID || !sameRecords(recs, want)):
		t.Fatalf("%q: read %q %+v, the reference %q %+v", body, id, recs, wantID, want)
	case err != nil && wantErr == nil && json.Valid(body) && exactKeys(body):
		t.Fatalf("refused %q, which the reference accepts: %v", body, err)
	}
}

// checkRuns holds the reader at procs runs of at least runBytes to the
// reader at one run: the same batch ID and records, or the same error.
func checkRuns(t *testing.T, body []byte, procs, runBytes int) {
	t.Helper()
	id, recs, err := decodeFlowsRuns(body, 1, runBytes)
	gotID, got, gotErr := decodeFlowsRuns(body, procs, runBytes)
	if fmt.Sprint(gotErr) != fmt.Sprint(err) || err == nil && (gotID != id || !sameRecords(got, recs)) {
		t.Fatalf("%d runs read %.200q as %q, %d records, %v; one run as %q, %d records, %v",
			procs, body, gotID, len(got), gotErr, id, len(recs), err)
	}
}

// flowsBodies are bodies on either side of the reader's rules.
var flowsBodies = []string{
	`{"records":[{"src":"10.0.0.1","dst":"e1","start":"2026-03-02T00:00:00Z","sessions":3}]}`,
	`{"records":[{"src":"a","dst":"b","start":"2026-03-02T00:00:00.123456789+05:30","duration_ms":1500,"sessions":1,"bytes":10,"packets":2,"proto":"udp"}],"batch_id":"x-1"}`,
	` {"batch_id":"b","records":[]} ` + "\n\t",
	`null`, `{}`, `{"records":null}`, `{"records":[null]}`, `{"batch_id":null}`,
	`{"records":[{"src":null,"dst":null,"start":null,"duration_ms":null,"sessions":null,"bytes":null,"packets":null,"proto":null}]}`,
	// Escapes and bytes that are not ASCII: unquoted as encoding/json does.
	`{"records":[{"src":"hé\"\\\/\n <&>","dst":"😀","sessions":1}],"batch_id":"A"}`,
	"{\"records\":[{\"src\":\"\xff\xfe\",\"dst\":\"caf\xc3\xa9\",\"sessions\":1}]}",
	`{"records":[{"src":"\ud800","dst":"x\u0000y","sessions":1}]}`,
	`{"records":[{"src":"a","dst":"b","sessions":1}]}`,
	// Duplicate keys: the last wins, and null leaves a field as it was.
	`{"records":[{"src":"a","src":"b","sessions":1,"sessions":2,"proto":"bad","proto":"tcp"}],"batch_id":"1","batch_id":"2"}`,
	`{"records":[{"src":"a","src":null,"start":"2026-03-02T00:00:00Z","start":null}]}`,
	`{"records":[{"src":"a"}],"records":[{"dst":"b"}]}`,
	// Case-folded and unknown keys.
	`{"RECORDS":[]}`, `{"records":[{"SRC":"a"}]}`, `{"records":[{"ſrc":"a"}]}`, `{"records":[{"label":"a"}]}`, `{"extra":1}`,
	`{"records":[{"src":"a","extra":null}]}`,
	// Numbers: integers in range only.
	`{"records":[{"sessions":9223372036854775807,"bytes":-9223372036854775808}]}`,
	`{"records":[{"sessions":9223372036854775808}]}`, `{"records":[{"bytes":-9223372036854775809}]}`,
	`{"records":[{"sessions":1.0}]}`, `{"records":[{"sessions":1e2}]}`, `{"records":[{"sessions":-0}]}`,
	`{"records":[{"sessions":01}]}`, `{"records":[{"sessions":-}]}`, `{"records":[{"sessions":"1"}]}`,
	`{"records":[{"sessions":4294967296}]}`, `{"records":[{"duration_ms":9223372036854}]}`,
	`{"records":[{"duration_ms":9223372036855}]}`, `{"records":[{"duration_ms":-9223372036855}]}`,
	`{"records":[{"duration_ms":-5}]}`,
	// Protocols.
	`{"records":[{"proto":"47"}]}`, `{"records":[{"proto":"proto(47)"}]}`, `{"records":[{"proto":"6abc"}]}`,
	`{"records":[{"proto":""}]}`, `{"records":[{"proto":6}]}`,
	// Start times.
	`{"records":[{"start":"2026-03-02"}]}`, `{"records":[{"start":"2026-03-02T00:00:00Z"}]}`,
	`{"records":[{"start":1}]}`, `{"records":[{"start":"10000-01-01T00:00:00Z"}]}`,
	// Wrong types and bad syntax.
	`[]`, `"x"`, `1`, `true`, `{"records":{}}`, `{"records":"x"}`, `{"records":[1]}`, `{"records":[[]]}`,
	`{"batch_id":1}`, `{"records":[{"src":["a"]}]}`, `{"records":[{"src":true}]}`,
	``, ` `, `{`, `{"records":[`, `{"records":[{"src":"a"`, `{"records":[{"src":"a\"}]}`, `{"records":[{"src":"a",}]}`,
	`{"records":[],}`, `{"records" []}`, `{'records':[]}`, "{\"records\":[{\"src\":\"a\tb\"}]}", `{"records":[{"src":"\x"}]}`,
	`{"records":[{"src":"\u12G4"}]}`, `nul`, `nullx`,
	// Bytes after the value.
	`{"records":[]} x`, `{"records":[]}{}`, `{"records":[]}]`, `null null`,
}

// TestReadFlowsMatchesDecoder checks the reader against the reference on
// the bodies above, and that each of its documented tightenings refuses
// what encoding/json accepts.
func TestReadFlowsMatchesDecoder(t *testing.T) {
	for _, body := range flowsBodies {
		checkReader(t, []byte(body))
	}
	for _, body := range []string{`{"RECORDS":[]}`, `{"records":[{"Src":"a"}]}`, `{"records":[]} x`, `{"records":[],"records":[]}`} {
		if _, _, err := oracleFlows([]byte(body)); err != nil {
			t.Fatalf("the reference refuses %q: %v", body, err)
		}
		if _, _, err := decodeFlows([]byte(body)); err == nil {
			t.Fatalf("accepted %q", body)
		}
	}
	batch := flowBatch(t)
	body, err := marshalFlows("probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	id, recs, err := decodeFlows(body)
	if err != nil || id != "probe" || !sameRecords(recs, batch) {
		t.Fatalf("the datagen batch read back as %q, %d records, %v", id, len(recs), err)
	}
}

// TestReadFlowsRuns: a datagen batch decodes to the same batch ID and
// records at 1, 2 and 4 runs, and at 2 and 4 every run is taken.
func TestReadFlowsRuns(t *testing.T) {
	batch := flowBatch(t)
	body, err := AppendFlows(nil, "probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		id, recs, err := decodeFlowsRuns(body, k, flowsRunBytes)
		if err != nil || id != "probe" || !sameRecords(recs, batch) {
			t.Fatalf("%d runs: read back as %q, %d records, %v", k, id, len(recs), err)
		}
		runs := cutRuns(body, min(k, len(body)/flowsRunBytes))
		if len(runs) != k-1 {
			t.Fatalf("%d runs: cut into %d", k, len(runs)+1)
		}
		n := 0
		for i := range runs {
			if runs[i].decode(body); !runs[i].ok {
				t.Fatalf("%d runs: run %d refused", k, i+2)
			}
			n += len(runs[i].recs)
		}
		if k > 1 && (n == 0 || n >= len(batch)) {
			t.Fatalf("%d runs: runs 2..%d hold %d of %d records", k, k, n, len(batch))
		}
	}
}

// TestReadFlowsRunMutations: a body with one byte changed reads at four
// runs exactly as at one — the same records or the same error string.
// In a 32-record body cut at a low threshold, where every byte lies
// within 2 KB of a cut, each byte is changed in turn; in the 2 000-record
// batch at the real threshold, random bytes are.
func TestReadFlowsRunMutations(t *testing.T) {
	batch := flowBatch(t)
	rng := rand.New(rand.NewSource(1))
	const subst = `}{,":] \\x0n-`
	for _, c := range []struct{ records, runBytes, random int }{{32, 512, 0}, {len(batch), flowsRunBytes, 100}} {
		body, err := AppendFlows(nil, "probe", batch[:c.records])
		if err != nil {
			t.Fatal(err)
		}
		runs := cutRuns(body, min(4, len(body)/c.runBytes))
		if len(runs) != 3 {
			t.Fatalf("%d records cut into %d runs, want 4", c.records, len(runs)+1)
		}
		var at []int
		if c.random == 0 {
			for i := range body {
				near := false
				for _, r := range runs {
					near = near || i-r.start < 2048 && r.start-i < 2048
				}
				if !near {
					t.Fatalf("byte %d is 2 KB from every cut of %d records", i, c.records)
				}
				at = append(at, i)
			}
		}
		for n := 0; n < c.random; n++ {
			at = append(at, rng.Intn(len(body)))
		}
		m := make([]byte, len(body))
		for _, i := range at {
			copy(m, body)
			if m[i] = subst[i%len(subst)]; m[i] == body[i] {
				m[i] = byte(rng.Intn(256))
			}
			checkRuns(t, m, 4, c.runBytes)
		}
	}
}

// TestAppendFlowsMatchesMarshal: the body the client sends is json.Marshal's
// byte for byte, over a datagen batch and records that exercise each
// rule of the encoding.
func TestAppendFlowsMatchesMarshal(t *testing.T) {
	base := time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC)
	odd := []netflow.Record{
		{Src: "a<b>&c", Dst: "  ", Start: base, Sessions: 1},
		{Src: "caf\xc3\xa9", Dst: "\xff", Start: base.Add(123456789), Sessions: 2, Proto: 47},
		{Src: "tab\there", Dst: "q\"b\\", Start: base.In(time.FixedZone("", -(3*3600 + 30*60))), Duration: -1500 * time.Microsecond, Sessions: -1, Bytes: -1, Packets: math.MaxInt64, Proto: netflow.UDP},
		{Src: "del\x7f", Dst: "", Start: time.Time{}, Proto: 0},
		{Src: "x", Dst: "y", Start: base.In(time.FixedZone("", 30)), Duration: 999 * time.Microsecond, Sessions: math.MaxInt64},
	}
	for _, c := range []struct {
		id   string
		recs []netflow.Record
	}{{"", nil}, {"", odd}, {"<id>", odd}, {"probe", flowBatch(t)}} {
		want, err := marshalFlows(c.id, c.recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFlows(nil, c.id, c.recs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFlows = %v\n%s\nwant\n%s", err, got, want)
		}
		checkReader(t, got)
	}
	for _, start := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		base.In(time.FixedZone("", 24*3600)),
		base.In(time.FixedZone("", -100*3600)),
	} {
		recs := []netflow.Record{{Src: "a", Dst: "b", Start: start, Sessions: 1}}
		if _, err := marshalFlows("", recs); err == nil {
			t.Fatalf("json.Marshal accepts start %v", start)
		}
		if _, err := AppendFlows(nil, "", recs); err == nil {
			t.Fatalf("AppendFlows accepts start %v", start)
		}
	}

	// What Client.IngestBatch puts on the wire.
	batch := flowBatch(t)
	var sent []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, _ = io.ReadAll(r.Body)
		WriteJSON(w, http.StatusOK, IngestResult{})
	}))
	defer ts.Close()
	if _, err := NewClient(ts.URL).IngestBatch("probe", batch); err != nil {
		t.Fatal(err)
	}
	if want, _ := marshalFlows("probe", batch); !bytes.Equal(sent, want) {
		t.Fatal("Client.IngestBatch's body differs from json.Marshal's")
	}
}

// TestFlowsHTTPErrors: what the POST /v1/flows handler answers for a
// body it refuses, and that a negative duration stays a rejection of
// its record while one that overflows is the body's 400.
func TestFlowsHTTPErrors(t *testing.T) {
	srv, _, done := newTestServer(t, testConfig())
	defer done()
	post := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flows", strings.NewReader(body)))
		var e struct{ Error string }
		if rec.Code != http.StatusOK {
			_ = json.Unmarshal(rec.Body.Bytes(), &e)
			return rec.Code, e.Error
		}
		return rec.Code, rec.Body.String()
	}
	start := `"start":"` + testConfig().Stream.Origin.Format(time.RFC3339) + `"`
	for _, c := range []struct{ body, want string }{
		{`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1,"duration_ms":9223372036855}]}`, "record 0: duration_ms 9223372036855 out of range"},
		{`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1},{"proto":"x"}]}`, "record 1: netflow: invalid protocol"},
		{`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1}]} garbage`, "bad request body: "},
		{`{"records":[{"src":"a","Dst":"b"}]}`, `bad request body: record 0: unknown field "Dst"`},
		{`{"records":[{"sessions":1.5}]}`, `bad request body: record 0: number "1.5" at offset 24 is not an integer in int64's range`},
	} {
		code, body := post(c.body)
		if code != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Errorf("POST %s = %d %s, want 400 naming %q", c.body, code, body, c.want)
		}
	}
	code, body := post(`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1,"duration_ms":-5}]}`)
	var res IngestResult
	if err := json.Unmarshal([]byte(body), &res); code != http.StatusOK || err != nil || res.Rejected != 1 {
		t.Fatalf("a negative duration: %d %s, want 200 with the record rejected", code, body)
	}
}

// TestCrashKeepsRecordsAfterOversizedSessions: a record whose sessions the WAL's
// 32 bits cannot hold is rejected at ingest. Logged, it was truncated —
// to 0, a frame the replay refuses, so a reboot cut the log there and
// lost every acknowledged record after it.
func TestCrashKeepsRecordsAfterOversizedSessions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	srv1, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	big := flowAt("10.0.0.1", "e-big", time.Minute, 1)
	big.Sessions = math.MaxUint32 + 1
	wrapped := flowAt("10.0.0.1", "e-wrapped", 2*time.Minute, 1)
	wrapped.Sessions = math.MaxUint32 + 2
	res := srv1.IngestRecords([]netflow.Record{flowAt("10.0.0.1", "e1", 0, 1), big, wrapped, flowAt("10.0.0.2", "e2", 3*time.Minute, 2)})
	if res.Accepted != 2 || res.Rejected != 2 {
		t.Errorf("ingest %+v, want 2 accepted and the two oversized records rejected", res)
	}
	mustIngest(t, srv1, []netflow.Record{flowAt("10.0.0.3", "e3", 4*time.Minute, 1)})
	// Crash: srv1 is abandoned, its open window only in the log.
	srv2, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Abort()
	if rec := srv2.Recovery(); rec.WALRecords != 3 || rec.WALRejected != 0 {
		t.Fatalf("WAL replay = %+v, want the 3 acknowledged records", rec)
	}
	srv2.Abort()
	want := []string{"10.0.0.1>e1", "10.0.0.2>e2", "10.0.0.3>e3"}
	if got := walRecordLabels(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("log holds %v, want %v", got, want)
	}
}

// TestReadFlowsAllocBudget: reading a 2 000-record batch allocates its
// records' two labels and little else — under 3 allocations a record
// (2.0 measured; encoding/json and the conversion made 3.0), at one run
// and at four. Reading the body takes a buffer for each doubling from
// 64 KiB to its length, whether or not the length is declared.
func TestReadFlowsAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	batch := flowBatch(t)
	body, err := AppendFlows(nil, "probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	allocs, _ := budget.PerRun(5, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/flows", bytes.NewReader(body))
		_, recs, ok := ReadFlows(httptest.NewRecorder(), req)
		if !ok {
			t.Fatal("batch refused")
		}
		n = len(recs)
	})
	if n != len(batch) || allocs > 3*float64(n) {
		t.Fatalf("reading %d records allocates %.0f times; budget %d", n, allocs, 3*len(batch))
	}
	allocs, _ = budget.PerRun(5, func() {
		_, recs, err := decodeFlowsRuns(body, 4, flowsRunBytes)
		if err != nil {
			t.Fatal(err)
		}
		n = len(recs)
	})
	if n != len(batch) || allocs > 3*float64(n) {
		t.Fatalf("decoding %d records in 4 runs allocates %.0f times; budget %d", n, allocs, 3*len(batch))
	}
	buffers := 1
	for size := flowsRunBytes; size <= len(body); size *= 2 {
		buffers++
	}
	var r bytes.Reader
	for _, declared := range []int64{int64(len(body)), -1} {
		allocs, _ = budget.PerRun(5, func() {
			r.Reset(body)
			if got, err := readBody(&r, declared, MaxBodyBytes); err != nil || len(got) != len(body) {
				t.Fatalf("read %d of %d bytes: %v", len(got), len(body), err)
			}
		})
		if allocs > float64(buffers) {
			t.Fatalf("reading %d bytes of declared length %d allocates %.0f times; budget %d", len(body), declared, allocs, buffers)
		}
	}
}

// TestReadBody: readBody reads any length, declared or not, up to its
// limit and refuses one byte more, or a declared length over it unread;
// a declared length that differs from what arrives changes only the
// buffers it takes.
func TestReadBody(t *testing.T) {
	const limit = 300 << 10
	data := bytes.Repeat([]byte("0123456789abcdef"), limit/16+1)
	for _, n := range []int{0, 1, flowsRunBytes - 1, flowsRunBytes, flowsRunBytes + 1, 200 << 10, limit, limit + 1} {
		for _, declared := range []int64{int64(n), -1, 0, int64(n) / 2, int64(n) + 7, 1 << 40} {
			got, err := readBody(iotest.HalfReader(bytes.NewReader(data[:n])), declared, limit)
			if n > limit || declared > limit {
				if bodyStatus(err) != http.StatusRequestEntityTooLarge {
					t.Fatalf("%d bytes (declared %d) over a limit of %d: %v", n, declared, limit, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, data[:n]) {
				t.Fatalf("%d bytes (declared %d): read %d, %v", n, declared, len(got), err)
			}
		}
	}
}

// BenchmarkFlowsCodec runs a 2 000-record datagen batch through each half
// of the flows codec and through what it replaced: decode is the body to
// converted records (encoding/json, or the codec in up to GOMAXPROCS
// runs), encode the records to the body, and read a loopback POST of
// the body, which the handler reads whole (io.ReadAll, or readBody). One
// op is one batch.
func BenchmarkFlowsCodec(b *testing.B) {
	batch := flowBatch(b)
	body, err := AppendFlows(nil, "probe", batch)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.URL.Path == "/readall" {
			_, err = io.ReadAll(r.Body)
		} else {
			_, err = readBody(r.Body, r.ContentLength, MaxBodyBytes)
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
		}
	}))
	defer ts.Close()
	post := func(path string) error {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST: %s", resp.Status)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"decode/json", func() error { _, _, err := oracleFlows(body); return err }},
		{"decode/codec", func() error { _, _, err := decodeFlows(body); return err }},
		{"encode/json", func() error { _, err := marshalFlows("probe", batch); return err }},
		{"encode/codec", func() error {
			_, err := AppendFlows(make([]byte, 0, flowRecordBytes*(len(batch)+1)), "probe", batch)
			return err
		}},
		{"read/readall", func() error { return post("/readall") }},
		{"read/codec", func() error { return post("/codec") }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzReadFlows holds the flows codec to encoding/json. The fuzzed body
// goes through checkReader's two directions, and through runs at a low
// threshold; a 400-record seed gives the runs bodies of many records. A
// record made of the other arguments goes through AppendFlows, which
// must write json.Marshal's bytes or refuse what it refuses, and the
// reader must take the body back as the reference does.
func FuzzReadFlows(f *testing.F) {
	batch, err := AppendFlows(nil, "probe", flowBatch(f)[:20])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch, "10.0.0.1", "e1", int64(1772409600), int64(0), int32(0), int64(1500*time.Millisecond), int64(3), int64(10), int64(2), uint8(6), "probe")
	for i, body := range flowsBodies {
		f.Add([]byte(body), "a<b>&\u2028\u2029", "caf\xc3\xa9\xff", int64(i)<<35, int64(i)*123456789, int32(i-20)*3600, int64(i)*999999, int64(i)<<30, int64(-i), int64(i), uint8(i), "")
	}
	large, err := AppendFlows(nil, "probe", flowBatch(f)[:400])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(large, "10.0.0.2", "e2", int64(1772409601), int64(5), int32(3600), int64(0), int64(1), int64(0), int64(0), uint8(17), "")
	f.Fuzz(func(t *testing.T, body []byte, src, dst string, sec, nsec int64, zone int32, dur, sessions, nbytes, packets int64, proto uint8, batchID string) {
		checkReader(t, body)
		recs := []netflow.Record{{
			Src: src, Dst: dst, Start: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			Duration: time.Duration(dur), Sessions: int(sessions), Bytes: nbytes, Packets: packets, Proto: netflow.Proto(proto),
		}}
		want, wantErr := marshalFlows(batchID, recs)
		got, err := AppendFlows(nil, batchID, recs)
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendFlows(%+v) = %s, %v\njson.Marshal = %s, %v", recs[0], got, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if _, _, err := decodeFlows(got); err != nil {
			t.Fatalf("the reader refuses the appender's %s: %v", got, err)
		}
		checkReader(t, got)
	})
}
