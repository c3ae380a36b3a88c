package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// refused and nothing but whitespace after the value, then each
// record's conversion, with ReadFlows's error texts.
func oracleFlows(body []byte) (string, []netflow.Record, error) {
	var req IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("data after the JSON value")
	}
	if err != nil {
		return "", nil, fmt.Errorf("bad request body: %w", err)
	}
	recs := make([]netflow.Record, len(req.Records))
	for i, rj := range req.Records {
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

// sameAsJSON reports whether bin, the records read from a binary body,
// are those a node keeps of json, the records read from the JSON body
// of the same batch: the same fields, and each start the JSON one
// truncated to the millisecond, in UTC.
func sameAsJSON(bin, json []netflow.Record) bool {
	if len(bin) != len(json) {
		return false
	}
	for i := range bin {
		a, b := bin[i], json[i]
		if a.Start.Location() != time.UTC || !a.Start.Equal(b.Start.Truncate(time.Millisecond)) {
			return false
		}
		a.Start = b.Start
		if a != b {
			return false
		}
	}
	return true
}

// postFlows reads body through ReadFlows as a POST to path of
// contentType: the batch ID and records it read, or the status and
// error text it answered.
func postFlows(path, contentType string, body []byte) (id string, recs []netflow.Record, status int, msg string) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	id, recs, ok := ReadFlows(w, req)
	if !ok {
		var e struct{ Error string }
		_ = json.Unmarshal(w.Body.Bytes(), &e)
		return "", nil, w.Code, e.Error
	}
	return id, recs, http.StatusOK, ""
}

// checkReader holds ReadFlows's reading of a JSON body to the
// reference: the same batch ID and records, or a 400 with the same
// error text.
func checkReader(t *testing.T, body []byte) {
	t.Helper()
	id, recs, status, msg := postFlows("/v1/flows", "application/json", body)
	wantID, want, wantErr := oracleFlows(body)
	if wantErr != nil && (status != http.StatusBadRequest || msg != wantErr.Error()) ||
		wantErr == nil && (status != http.StatusOK || id != wantID || !sameRecords(recs, want)) {
		t.Fatalf("%.200q: read %q %+v, %d %s; the reference %q %+v, %v", body, id, recs, status, msg, wantID, want, wantErr)
	}
}

// checkBinary holds ReadFlows's reading of a binary body to the
// stream: a 400 naming the body or a record, or the query's batch ID
// and records that encode back to the body's bytes.
func checkBinary(t *testing.T, batchID string, body []byte) {
	t.Helper()
	id, recs, status, msg := postFlows("/v1/flows?batch_id="+url.QueryEscape(batchID), FlowsBinaryType, body)
	if status == http.StatusBadRequest && (strings.HasPrefix(msg, "bad request body: ") || strings.HasPrefix(msg, "record ")) {
		return
	}
	if status != http.StatusOK || id != batchID {
		t.Fatalf("%.200q: %d %s, batch %q", body, status, msg, id)
	}
	enc := []byte(netflow.BinaryMagic)
	for i := range recs {
		var err error
		if enc, err = netflow.AppendRecordBinary(enc, &recs[i]); err != nil {
			t.Fatalf("%.200q: record %d read as %+v, which does not encode: %v", body, i, recs[i], err)
		}
	}
	if !bytes.Equal(enc, body) {
		t.Fatalf("%.200q: its %d records encode back to %.200q", body, len(recs), enc)
	}
}

// checkClientBody holds what Client.IngestBatch sends for a batch to
// the batch's JSON body: a binary body that ReadFlows reads back to the
// batch ID and the records the JSON body reads to (sameAsJSON), or the
// JSON body itself, or a refusal where json.Marshal refuses.
func checkClientBody(t *testing.T, batchID string, records []netflow.Record) {
	t.Helper()
	want, wantErr := marshalFlows(batchID, records)
	path, contentType, body, err := flowsRequest(batchID, records)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: the client's body %v, json.Marshal's %v", records, err, wantErr)
	}
	if err != nil {
		return
	}
	if contentType != FlowsBinaryType {
		if path != "/v1/flows" || contentType != "application/json" || !bytes.Equal(body, want) {
			t.Fatalf("%+v: sent to %s as %s\n%s\njson.Marshal writes\n%s", records, path, contentType, body, want)
		}
		return
	}
	wantID, wantRecs, wantErr := oracleFlows(want)
	id, recs, status, msg := postFlows(path, contentType, body)
	if wantErr != nil || status != http.StatusOK || id != wantID || !sameAsJSON(recs, wantRecs) {
		t.Fatalf("%+v: the binary body read back as %q %+v, %d %s; the JSON one as %q %+v, %v",
			records, id, recs, status, msg, wantID, wantRecs, wantErr)
	}
}

// flowsBodies are JSON bodies on either side of encoding/json's rules.
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

// fullRecord is a record as json.Marshal writes one, every optional key
// present.
const fullRecord = `{"src":"10.0.0.1","dst":"198.18.0.7","start":"2026-03-02T10:20:30.25Z","duration_ms":1500,"sessions":3,"bytes":10,"packets":2,"proto":"tcp"}`

// recordEdits are edits of fullRecord at each rule of a record's
// reading — its keys, strings, integers and start times — on either
// side of it.
var recordEdits = [][2]string{
	{"", ""},
	// Optional keys left out.
	{`"bytes":10,"packets":2,`, ``}, {`"duration_ms":1500,`, ``}, {`"packets":2,`, ``},
	// Strings: plain ASCII, DEL included; any protocol name.
	{`"198.18.0.7"`, "\"a\x7fb\""}, {`"198.18.0.7"`, `""`}, {`"10.0.0.1"`, `" <&>/"`},
	{`"tcp"`, `"udp"`}, {`"tcp"`, `"47"`}, {`"tcp"`, `"proto(47)"`}, {`"tcp"`, `"bad"`}, {`"tcp"`, `""`}, {`"tcp"`, `"TCP"`},
	// Integers of up to 18 digits; a duration the conversion refuses.
	{`"sessions":3`, `"sessions":0`}, {`"bytes":10`, `"bytes":999999999999999999`},
	{`"duration_ms":1500`, `"duration_ms":9223372036854`}, {`"duration_ms":1500`, `"duration_ms":9223372036855`},
	// Start times: fractions of 0 to 9 digits; days at their months' ends.
	{`.25Z`, `Z`}, {`.25Z`, `.2Z`}, {`.25Z`, `.123456789Z`}, {`.25Z`, `.000000000Z`}, {`10:20:30`, `23:59:59`},
	{`2026-03-02`, `0000-01-01`}, {`2026-03-02`, `9999-12-31`}, {`2026-03-02`, `2026-01-31`}, {`2026-03-02`, `2026-04-30`},
	{`2026-03-02`, `2026-12-31`}, {`2026-03-02`, `2026-02-28`}, {`2026-03-02`, `2024-02-29`},
	{`2026-03-02`, `2000-02-29`}, {`2026-03-02`, `0000-02-29`},
	// Whitespace, key order, a repeated, unknown or missing key, null.
	{`{"src":`, `{ "src":`}, {`"src":"10.0.0.1"`, `"src": "10.0.0.1"`}, {`{"src":`, `{"src" :`}, {`"tcp"}`, `"tcp" }`},
	{`"src":"10.0.0.1","dst":"198.18.0.7"`, `"dst":"198.18.0.7","src":"10.0.0.1"`},
	{`"bytes":10,"packets":2`, `"packets":2,"bytes":10`},
	{`"proto":"tcp"`, `"proto":"tcp","proto":"udp"`}, {`"sessions":3`, `"sessions":3,"sessions":4`},
	{`"proto":"tcp"`, `"proto":"tcp","extra":1`}, {`"sessions":3,`, ``}, {`,"proto":"tcp"`, ``},
	{`"duration_ms":1500`, `"duration_ms":null`}, {`"src":"10.0.0.1"`, `"src":null`}, {`"proto":"tcp"`, `"proto":null`},
	// Strings: escaped, not ASCII, a control byte.
	{`"10.0.0.1"`, `"10.0.0.\u0031"`}, {`"10.0.0.1"`, `"10.0.0.\/"`}, {`"198.18.0.7"`, "\"caf\xc3\xa9\""},
	{`"198.18.0.7"`, "\"\xff\""}, {`"198.18.0.7"`, "\"a\tb\""},
	// Integers: sign, leading zero, fraction, exponent, width.
	{`"bytes":10`, `"bytes":-10`}, {`"bytes":10`, `"bytes":+10`}, {`"sessions":3`, `"sessions":03`},
	{`"sessions":3`, `"sessions":-0`}, {`"sessions":3`, `"sessions":3.0`}, {`"sessions":3`, `"sessions":3e0`},
	{`"bytes":10`, `"bytes":1E1`}, {`"bytes":10`, `"bytes":10.`}, {`"bytes":10`, `"bytes":1000000000000000000`},
	{`"bytes":10`, `"bytes":9223372036854775807`}, {`"bytes":10`, `"bytes":9223372036854775808`},
	{`"duration_ms":1500`, `"duration_ms":-5`}, {`"sessions":3`, `"sessions":"3"`}, {`"sessions":3`, `"sessions":`},
	// Start times: zones, spellings, fractions.
	{`.25Z`, `.25+02:00`}, {`.25Z`, `+00:00`}, {`.25Z`, `.25z`}, {`.25Z`, `,25Z`}, {`.25Z`, `.Z`}, {`.25Z`, `.1234567891Z`},
	{`.25Z`, ``}, {`.25Z`, `.25`}, {`.25Z`, `.25Zx`}, {`10:20:30`, `10:20`}, {`2026-03-02T`, `2026-03-02t`},
	{`2026-03-02T`, `2026-03-02 `}, {`2026-03-02T`, `20260302T`}, {`2026-03-02T`, `+2026-03-02T`},
	{`2026-03-02`, `2026/03-02`}, {`2026-03-02`, `2026-03/02`}, {`10:20:30`, `10.20:30`}, {`10:20:30`, `10:20.30`},
	{`.25Z`, `Z.25`}, {`.25Z`, `.25Z"`}, {`.25Z"`, `.25Zx`}, {`2026-03-02`, `2026-03-1:`}, {`10:20:30`, `10:2::30`},
	{`"2026-03-02T10:20:30.25Z"`, `1772409600`}, {`"2026-03-02T10:20:30.25Z"`, `null`},
	// Fields out of range, days past their months' ends.
	{`10:20:30`, `10:20:60`}, {`10:20:30`, `10:60:30`}, {`10:20:30`, `24:20:30`}, {`10:20:30`, `1a:20:30`},
	{`2026-03-02`, `2026-13-02`}, {`2026-03-02`, `2026-00-02`}, {`2026-03-02`, `2026-03-00`}, {`2026-03-02`, `2026-0a-02`},
	{`2026-03-02`, `2026-01-32`}, {`2026-03-02`, `2026-04-31`}, {`2026-03-02`, `2026-06-31`}, {`2026-03-02`, `2026-09-31`},
	{`2026-03-02`, `2026-11-31`}, {`2026-03-02`, `2026-02-29`}, {`2026-03-02`, `2024-02-30`}, {`2026-03-02`, `1900-02-29`},
	// The record's end.
	{`"tcp"}`, `"tcp"`}, {`"tcp"}`, `"tcp"]`},
}

// editedBody is a three-record body: fullRecord, fullRecord with e
// made, and fullRecord again.
func editedBody(e [2]string) string {
	rec := strings.Replace(fullRecord, e[0], e[1], 1)
	return `{"records":[` + fullRecord + `,` + rec + `,` + fullRecord + `],"batch_id":"b"}`
}

// editedBodies are the bodies of every edit.
var editedBodies = func() (bodies []string) {
	for _, e := range recordEdits {
		bodies = append(bodies, editedBody(e))
	}
	return bodies
}()

// TestReadFlowsMatchesDecoder checks the reading of JSON bodies against
// the reference on the bodies above and on a datagen batch.
func TestReadFlowsMatchesDecoder(t *testing.T) {
	for _, body := range append(flowsBodies, editedBodies...) {
		checkReader(t, []byte(body))
	}
	batch := flowBatch(t)
	body, err := marshalFlows("probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	id, recs, status, msg := postFlows("/v1/flows", "application/json", body)
	if status != http.StatusOK || id != "probe" || !sameRecords(recs, batch) {
		t.Fatalf("the datagen batch read back as %q, %d records, %d %s", id, len(recs), status, msg)
	}
}

// generalBodiesOf reads body through ReadFlows and counts the bodies
// that went to encoding/json: 0 or 1.
func generalBodiesOf(path, contentType string, body []byte) int64 {
	before := GeneralBodies()
	postFlows(path, contentType, body)
	return GeneralBodies() - before
}

// TestReadFlowsLayout: the batch Client.IngestBatch sends is read in
// its own format, and every JSON body by encoding/json, counted once in
// GeneralBodies, json.Marshal's among them.
func TestReadFlowsLayout(t *testing.T) {
	batch := flowBatch(t)
	path, contentType, body, err := flowsRequest("probe", batch)
	if err != nil || contentType != FlowsBinaryType {
		t.Fatalf("the client sends the datagen batch as %q, %v", contentType, err)
	}
	if n := generalBodiesOf(path, contentType, body); n != 0 {
		t.Fatalf("the %d records Client.IngestBatch sends went to encoding/json", len(batch))
	}
	marshalled, err := marshalFlows("probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append([]string{string(marshalled)}, editedBodies...) {
		if n := generalBodiesOf("/v1/flows", "application/json", []byte(b)); n != 1 {
			t.Fatalf("%.200q went to encoding/json %d times, want 1", b, n)
		}
	}
}

// TestIngestBatchBody: Client.IngestBatch sends a batch as a binary
// stream — byte for byte netflow.WriteBinary's, the batch ID in the
// query — when each record reads back from it as from the JSON body,
// sub-millisecond, pre-1970 and zoned starts included. A batch with one
// record the stream does not carry so goes as json.Marshal's body, and
// one json.Marshal refuses is refused.
func TestIngestBatchBody(t *testing.T) {
	base := time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC)
	good := netflow.Record{Src: "a", Dst: "b", Start: base, Sessions: 1, Proto: netflow.TCP}
	edited := func(edit func(*netflow.Record)) []netflow.Record {
		r := good
		edit(&r)
		return []netflow.Record{good, r}
	}
	for _, edit := range []func(*netflow.Record){
		func(r *netflow.Record) { r.Dst = r.Src },
		func(r *netflow.Record) { r.Src = "" },
		func(r *netflow.Record) { r.Sessions = 0 },
		func(r *netflow.Record) { r.Sessions = -1 },
		func(r *netflow.Record) { r.Sessions = math.MaxUint32 + 1 },
		func(r *netflow.Record) { r.Duration = -time.Millisecond },
		func(r *netflow.Record) { r.Bytes = -1 },
		func(r *netflow.Record) { r.Start = time.Time{} },
		func(r *netflow.Record) { r.Start = time.Time{}.Add(999 * time.Microsecond) },
		func(r *netflow.Record) { r.Src = strings.Repeat("a", 1<<16) },
		func(r *netflow.Record) { r.Dst = "caf\xff" },
	} {
		recs := edited(edit)
		if _, contentType, _, err := flowsRequest("id", recs); err != nil || contentType != "application/json" {
			t.Fatalf("%+v sent as %q, %v; want JSON", recs[1], contentType, err)
		}
		checkClientBody(t, "id", recs)
	}
	for _, start := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		base.In(time.FixedZone("", 24*3600)),
		base.In(time.FixedZone("", -100*3600)),
	} {
		recs := edited(func(r *netflow.Record) { r.Start = start })
		if _, _, _, err := flowsRequest("", recs); err == nil {
			t.Fatalf("the client sends start %v", start)
		}
		checkClientBody(t, "", recs)
	}
	for _, edit := range []func(*netflow.Record){
		func(r *netflow.Record) { r.Start = base.Add(123456789) },
		func(r *netflow.Record) { r.Start = time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC) },
		func(r *netflow.Record) { r.Start = time.Date(1, 1, 1, 0, 0, 0, 1_000_000, time.UTC) },
		func(r *netflow.Record) {
			r.Start = base.Add(500 * time.Microsecond).In(time.FixedZone("", -(3*3600 + 30*60)))
		},
		func(r *netflow.Record) { r.Duration = 1500 * time.Microsecond },
		func(r *netflow.Record) { r.Src, r.Dst = "a<b>&c", "caf\xc3\xa9 " },
		func(r *netflow.Record) { r.Proto, r.Bytes, r.Packets = 0, math.MaxInt64, 7 },
		func(r *netflow.Record) { r.Sessions = math.MaxUint32 },
	} {
		recs := edited(edit)
		if _, contentType, _, err := flowsRequest("<id>", recs); err != nil || contentType != FlowsBinaryType {
			t.Fatalf("%+v sent as %q, %v; want the binary stream", recs[1], contentType, err)
		}
		checkClientBody(t, "<id>", recs)
	}

	// What Client.IngestBatch puts on the wire.
	batch := flowBatch(t)
	var capture bytes.Buffer
	if err := netflow.WriteBinary(&capture, batch); err != nil {
		t.Fatal(err)
	}
	var sent []byte
	var contentType, batchID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, _ = io.ReadAll(r.Body)
		contentType, batchID = r.Header.Get("Content-Type"), r.URL.Query().Get("batch_id")
		WriteJSON(w, http.StatusOK, IngestResult{})
	}))
	defer ts.Close()
	if _, err := NewClient(ts.URL).IngestBatch("probe 1", batch); err != nil {
		t.Fatal(err)
	}
	if contentType != FlowsBinaryType || batchID != "probe 1" || !bytes.Equal(sent, capture.Bytes()) {
		t.Fatalf("Client.IngestBatch sent %d bytes as %q, batch %q; WriteBinary writes %d", len(sent), contentType, batchID, capture.Len())
	}
	checkClientBody(t, "probe", batch)
}

// TestIngestBatchSameAnswer: a node fed batches through
// Client.IngestBatch answers each as a node fed the same batches as
// JSON bodies does — the same results, error texts and deduplication —
// and ends with the same archive, whether the client sent a batch as
// the binary stream or, holding a record the stream does not carry, as
// JSON.
func TestIngestBatchSameAnswer(t *testing.T) {
	viaClient, client, doneClient := newTestServer(t, testConfig())
	defer doneClient()
	viaJSON, jsonClient, doneJSON := newTestServer(t, testConfig())
	defer doneJSON()
	postJSON := func(batchID string, records []netflow.Record) IngestResult {
		t.Helper()
		body, err := marshalFlows(batchID, records)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(jsonClient.Base+"/v1/flows", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST as JSON: %d, %v", resp.StatusCode, err)
		}
		return res
	}
	odd := func(r netflow.Record, edit func(*netflow.Record)) netflow.Record {
		edit(&r)
		return r
	}
	subMS := 600 * time.Microsecond
	batches := [][]netflow.Record{
		window0Flows(),
		append(window0Flows(),
			flowAt("10.0.0.1", "e3", 5*time.Minute+subMS, 1),
			odd(flowAt("10.0.0.4", "e1", 0, 1), func(r *netflow.Record) { r.Start = time.Date(1969, 12, 31, 23, 59, 59, 999_500_000, time.UTC) }),
			odd(flowAt("10.0.0.5", "e1", 0, 1), func(r *netflow.Record) { r.Proto = netflow.UDP }),
			odd(flowAt("10.0.0.5", "e1", 0, 1), func(r *netflow.Record) { r.Duration = 2500 * time.Microsecond }),
		),
		{flowAt("10.0.0.1", "e1", 6*time.Minute, 2), odd(flowAt("10.0.0.1", "e1", 0, 1), func(r *netflow.Record) { r.Dst = r.Src })},
		{flowAt("10.0.0.2", "e4", 7*time.Minute, 0), flowAt("10.0.0.2", "e5", 7*time.Minute, math.MaxUint32+1)},
		{flowAt("10.0.0.2", "e6", 8*time.Minute, 1), odd(flowAt("10.0.0.2", "e7", 0, 1), func(r *netflow.Record) { r.Duration = -time.Second })},
		{odd(flowAt("10.0.0.3", "e1", 0, 1), func(r *netflow.Record) { r.Start = time.Time{}.Add(subMS) })},
		{odd(flowAt("10.0.0.3", "e1", 9*time.Minute, 1), func(r *netflow.Record) { r.Dst = strings.Repeat("e", 1<<16) })},
		{odd(flowAt("10.0.0.3", "e1", 9*time.Minute, 1), func(r *netflow.Record) { r.Dst = "e\xff" })},
		{flowAt("10.0.0.1", "e2", time.Hour+subMS, 1), flowAt("10.0.0.3", "e9", time.Hour+time.Minute, 2)},
		{flowAt("10.0.0.1", "e1", 2*time.Hour-subMS, 1), flowAt("10.0.0.1", "e8", 30*time.Minute, 1)},
		nil,
	}
	for i, batch := range batches {
		for _, id := range []string{fmt.Sprintf("b-%d", i), fmt.Sprintf("b-%d", i), ""} {
			got, err := client.IngestBatch(id, batch)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if want := postJSON(id, batch); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d (ID %q): through the client %+v, as JSON %+v", i, id, got, want)
			}
		}
	}
	for _, s := range []*Server{viaClient, viaJSON} {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := archiveFingerprint(viaClient), archiveFingerprint(viaJSON)
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("archive through the client %v, as JSON %v", got, want)
	}
}

// TestFlowsBinaryHTTP: what a node answers for binary bodies: a
// netflow.WriteBinary capture posted with a batch_id is ingested, and
// its repost deduplicated; a body without the stream's header, a record
// cut short and a record that does not validate are 400s naming the
// body or the record, and a body over MaxBodyBytes is a 413.
func TestFlowsBinaryHTTP(t *testing.T) {
	srv, _, done := newTestServer(t, testConfig())
	defer done()
	post := func(path string, body []byte, declared int64) (int, string) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", FlowsBinaryType)
		if declared > 0 {
			req.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	var capture bytes.Buffer
	if err := netflow.WriteBinary(&capture, window0Flows()); err != nil {
		t.Fatal(err)
	}
	for _, dedup := range []bool{false, true} {
		code, body := post("/v1/flows?batch_id=cap-1", capture.Bytes(), 0)
		var res IngestResult
		if err := json.Unmarshal([]byte(body), &res); code != http.StatusOK || err != nil || res.Accepted != 5 || res.Deduplicated != dedup {
			t.Fatalf("POST of the capture = %d %s, want 200 with 5 accepted, deduplicated %v", code, body, dedup)
		}
	}
	good := capture.Bytes()
	selfFlow, err := netflow.AppendRecordBinary([]byte(netflow.BinaryMagic), &netflow.Record{Src: "a", Dst: "b", Start: testT0, Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	selfFlow[len(netflow.BinaryMagic)+2+1+2] = 'a' // dst "b" → "a"
	for _, c := range []struct {
		body     []byte
		declared int64
		code     int
		want     string
	}{
		{nil, 0, http.StatusBadRequest, `bad request body: no "NFB1" header`},
		{[]byte(`{"records":[]}`), 0, http.StatusBadRequest, `bad request body: no "NFB1" header`},
		{good[:len(good)-1], 0, http.StatusBadRequest, "record 4: unexpected EOF"},
		{selfFlow, 0, http.StatusBadRequest, "record 0: netflow: record a->a is a self-flow"},
		{good, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, "bad request body: 67108865 bytes declared: http: request body too large"},
	} {
		code, body := post("/v1/flows", c.body, c.declared)
		var e struct{ Error string }
		if err := json.Unmarshal([]byte(body), &e); code != c.code || err != nil || e.Error != c.want {
			t.Errorf("POST of %.60q = %d %s, want %d %q", c.body, code, body, c.code, c.want)
		}
	}
}

// TestFlowsHTTPErrors: what the POST /v1/flows handler answers for a
// body it refuses, that a negative duration stays a rejection of its
// record while one that overflows is the body's 400, and that keys are
// read by encoding/json's rules: folded, and of a repeated "records" the
// second decoded over the first one's elements.
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
		{`{"records":[{"sessions":1.5}]}`, `bad request body: json: cannot unmarshal number 1.5 into Go struct field RecordJSON.records.sessions of type int`},
	} {
		code, body := post(c.body)
		if code != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Errorf("POST %s = %d %s, want 400 naming %q", c.body, code, body, c.want)
		}
	}
	for _, c := range []struct {
		body               string
		accepted, rejected int
	}{
		{`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1,"duration_ms":-5}]}`, 0, 1},
		{`{"records":[{"src":"a","Dst":"b",` + start + `,"sessions":1}]}`, 1, 0},
		{`{"records":[{"SRC":"a","dst":"b",` + start + `,"sessions":1}]}`, 1, 0},
		// The second array keeps the first one's src, start and sessions.
		{`{"records":[{"src":"a","dst":"b",` + start + `,"sessions":1}],"records":[{"dst":"c"}]}`, 1, 0},
	} {
		code, body := post(c.body)
		var res IngestResult
		if err := json.Unmarshal([]byte(body), &res); code != http.StatusOK || err != nil || res.Accepted != c.accepted || res.Rejected != c.rejected {
			t.Errorf("POST %s = %d %s, want 200 with %d accepted and %d rejected", c.body, code, body, c.accepted, c.rejected)
		}
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

// TestReadFlowsAllocBudget: reading the 2 000-record batch
// Client.IngestBatch sends allocates its records' labels and little
// else — one allocation a record, for both labels, and a constant (the
// request, the query, the records' slice). Reading the body takes a
// buffer for each doubling from 64 KiB to its length, whether or not
// the length is declared.
func TestReadFlowsAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	batch := flowBatch(t)
	path, contentType, body, err := flowsRequest("probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	const constant = 48 // 23 measured
	var n int
	allocs, _ := budget.PerRun(5, func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		_, recs, ok := ReadFlows(httptest.NewRecorder(), req)
		if !ok {
			t.Fatal("batch refused")
		}
		n = len(recs)
	})
	t.Logf("reading %d records allocates %.0f times", n, allocs)
	if n != len(batch) || allocs > float64(n+constant) {
		t.Fatalf("reading %d records allocates %.0f times; budget %d", n, allocs, len(batch)+constant)
	}
	buffers := 1
	for size := bodyStartBytes; size <= len(body); size *= 2 {
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

// TestReadFlowsSeparatorFloodBudget: a 1 MiB hostile body, read as
// ReadFlows reads it once it is in memory, allocates no more than
// floodBytesPerByte times its length and floodBytes beside. The bodies:
// a JSON one of `{"records":[` and record separators alone, which
// encoding/json refuses at its first; a binary one of minimal 43-byte
// records, whose slice the count pass over their length prefixes sizes
// (2.28 B a byte measured: 96 a record); and that body with its last
// length prefix overrunning it, refused 400 after the same count.
func TestReadFlowsSeparatorFloodBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const floodBytesPerByte, floodBytes = 3, 64 << 10
	separators := []byte(`{"records":[` + strings.Repeat(`},{"`, (1<<20)/len(`},{"`)))
	minimal, err := netflow.AppendRecordBinary(nil, &netflow.Record{Src: "a", Dst: "b", Start: testT0, Sessions: 1})
	if err != nil || len(minimal) != netflow.MinRecordBinaryLen {
		t.Fatalf("a minimal record encodes to %d bytes, %v", len(minimal), err)
	}
	records := append([]byte(netflow.BinaryMagic), bytes.Repeat(minimal, (1<<20)/len(minimal))...)
	overrun := bytes.Clone(records)
	binary.LittleEndian.PutUint16(overrun[len(overrun)-len(minimal):], math.MaxUint16)
	for _, c := range []struct {
		name string
		read func() error
		fail bool
	}{
		{"separators", func() error { _, _, err := generalFlows(bytes.NewReader(separators)); return err }, true},
		{"minimal records", func() error { _, err := binaryFlows(records); return err }, false},
		{"overrun", func() error { _, err := binaryFlows(overrun); return err }, true},
	} {
		_, bytes := budget.PerRun(3, func() {
			if err := c.read(); (err != nil) != c.fail {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f bytes, %.2f a body byte", c.name, bytes, bytes/float64(1<<20))
		if limit := floodBytesPerByte<<20 + floodBytes; bytes > float64(limit) {
			t.Errorf("%s: a 1 MiB body allocated %.0f bytes; budget %d", c.name, bytes, limit)
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
	for _, n := range []int{0, 1, bodyStartBytes - 1, bodyStartBytes, bodyStartBytes + 1, 200 << 10, limit, limit + 1} {
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

// BenchmarkFlowsCodec runs a 2 000-record datagen batch through each
// half of the flows codec: decode is the body to records, encode the
// records to the body, each in the binary stream Client.IngestBatch
// sends and in JSON, through encoding/json, as a JSON body costs; read
// is a loopback POST of the binary body, which the handler reads whole
// (io.ReadAll, or readBody). One op is one batch.
func BenchmarkFlowsCodec(b *testing.B) {
	batch := flowBatch(b)
	jsonBody, err := marshalFlows("probe", batch)
	if err != nil {
		b.Fatal(err)
	}
	_, contentType, body, err := flowsRequest("probe", batch)
	if err != nil || contentType != FlowsBinaryType {
		b.Fatalf("the batch goes as %q, %v", contentType, err)
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
		resp, err := http.Post(ts.URL+path, FlowsBinaryType, bytes.NewReader(body))
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
		size int
		run  func() error
	}{
		{"decode/json", len(jsonBody), func() error { _, _, err := oracleFlows(jsonBody); return err }},
		{"decode/binary", len(body), func() error { _, err := binaryFlows(body); return err }},
		{"encode/json", len(jsonBody), func() error { _, err := marshalFlows("probe", batch); return err }},
		{"encode/binary", len(body), func() error { _, _, _, err := flowsRequest("probe", batch); return err }},
		{"read/readall", len(body), func() error { return post("/readall") }},
		{"read/codec", len(body), func() error { return post("/codec") }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzReadFlows holds ReadFlows to its two formats and the client to
// its JSON body. The fuzzed body is read as binary, when binary is set,
// and must be a 400 or the batch ID of the query and records that encode
// back to the body (checkBinary); otherwise as JSON, and must give the
// reference's records or error text (checkReader). A record made of the
// other arguments, after a datagen one, goes through the client's body,
// which must read back as its JSON body does (checkClientBody).
func FuzzReadFlows(f *testing.F) {
	batch := flowBatch(f)
	binaryOf := func(recs []netflow.Record) []byte {
		_, contentType, body, err := flowsRequest("", recs)
		if err != nil || contentType != FlowsBinaryType {
			f.Fatalf("the client sends %d records as %q, %v", len(recs), contentType, err)
		}
		return body
	}
	small, large := binaryOf(batch[:20]), binaryOf(batch[:400])
	f.Add(small, true, "10.0.0.1", "e1", int64(1772409600), int64(0), int32(0), int64(1500*time.Millisecond), int64(3), int64(10), int64(2), uint8(6), "probe")
	for i, body := range flowsBodies {
		f.Add([]byte(body), false, "a<b>&  ", "caf\xc3\xa9\xff", int64(i)<<35, int64(i)*123456789, int32(i-20)*3600, int64(i)*999999, int64(i)<<30, int64(-i), int64(i), uint8(i), "")
	}
	// Records at each rule of the JSON reading, and times on UTC days at
	// the ends of months.
	for i, body := range editedBodies {
		f.Add([]byte(body), false, "10.0.0.1", "e1", int64(951782400+i*86400), int64(i)*1000, int32(0), int64(i)*int64(time.Millisecond), int64(i), int64(i)<<40, int64(0), uint8(6+i%12), "b")
	}
	f.Add(large, true, "10.0.0.2", "e2", int64(1772409601), int64(5), int32(3600), int64(0), int64(1), int64(0), int64(0), uint8(17), "")
	// Binary bodies cut short, without their header, with a length
	// prefix that overruns, a zero start, a JSON body under the binary
	// type, and the other way round.
	overrun := bytes.Clone(small)
	binary.LittleEndian.PutUint16(overrun[len(netflow.BinaryMagic):], math.MaxUint16)
	zeroStart := bytes.Clone(small)
	clear(zeroStart[len(netflow.BinaryMagic)+2+len(batch[0].Src)+2+len(batch[0].Dst):][:8])
	for i, body := range [][]byte{nil, small[:2], small[:4], small[:len(small)-1], small[4:], overrun, zeroStart, []byte(flowsBodies[0])} {
		f.Add(body, true, "10.0.0.3", "e3", int64(-1-i), int64(999_999), int32(-i), int64(-i), int64(math.MaxUint32+i), int64(i), int64(i), uint8(i), "x&y=z")
	}
	f.Add(small, false, "", "", int64(0), int64(0), int32(0), int64(0), int64(0), int64(0), int64(0), uint8(0), "")
	f.Fuzz(func(t *testing.T, body []byte, binary bool, src, dst string, sec, nsec int64, zone int32, dur, sessions, nbytes, packets int64, proto uint8, batchID string) {
		if binary {
			checkBinary(t, batchID, body)
		} else {
			checkReader(t, body)
		}
		rec := netflow.Record{
			Src: src, Dst: dst, Start: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			Duration: time.Duration(dur), Sessions: int(sessions), Bytes: nbytes, Packets: packets, Proto: netflow.Proto(proto),
		}
		checkClientBody(t, batchID, []netflow.Record{batch[0], rec})
	})
}
