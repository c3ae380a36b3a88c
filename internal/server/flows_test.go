package server

import (
	"bytes"
	"encoding/json"
	"errors"
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

// checkReader holds ReadFlows's decoding to the reference on one body:
// the same batch ID and records, or the same error text. Its runs are
// held to one run at a threshold low enough that any body of a few
// records is split.
func checkReader(t *testing.T, body []byte) {
	t.Helper()
	checkRuns(t, body, 4, 32)
	checkDeparts(t, body, 4, 32)
	id, recs, err := decodeFlows(body)
	wantID, want, wantErr := oracleFlows(body)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && (id != wantID || !sameRecords(recs, want)) {
		t.Fatalf("%q: read %q %+v, %v; the reference %q %+v, %v", body, id, recs, err, wantID, want, wantErr)
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

// checkDeparts holds the laid-out reading in procs runs of at least
// runBytes to depart from the layout exactly when the reading in one run
// does, which is why a body whose runs depart goes to encoding/json
// without a single-run reading first.
func checkDeparts(t *testing.T, body []byte, procs, runBytes int) {
	t.Helper()
	cut := cutRuns(body, min(procs, len(body)/runBytes))
	inRuns, _, _, _ := laidOutFlows(body, cut)
	if inOne, _, _, _ := laidOutFlows(body, nil); len(cut) > 0 && inRuns != inOne {
		t.Fatalf("%.200q: laid out in %d runs %v, in one %v", body, len(cut)+1, inRuns, inOne)
	}
}

// TestReadFlowsRunsDepartTogether: a 32-record body with each byte
// changed in turn departs from the layout in four runs exactly when it
// does in one.
func TestReadFlowsRunsDepartTogether(t *testing.T) {
	body, err := AppendFlows(nil, "probe", flowBatch(t)[:32])
	if err != nil {
		t.Fatal(err)
	}
	if len(cutRuns(body, min(4, len(body)/512))) != 3 {
		t.Fatal("the body is not cut into four runs")
	}
	const subst = `}{,":] \\x0n-`
	m := bytes.Clone(body)
	for i := range body {
		if m[i] = subst[i%len(subst)]; m[i] != body[i] {
			checkDeparts(t, m, 4, 512)
		}
		m[i] = body[i]
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

// laidOut is a record as AppendFlows writes one, every optional key
// present.
const laidOut = `{"src":"10.0.0.1","dst":"198.18.0.7","start":"2026-03-02T10:20:30.25Z","duration_ms":1500,"sessions":3,"bytes":10,"packets":2,"proto":"tcp"}`

// inLayout and outOfLayout are edits of laidOut on either side of each
// rule of the laid-out reading: after one of the first the record is
// still laid out, after one of the second encoding/json reads the body.
var (
	inLayout = [][2]string{
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
	}
	outOfLayout = [][2]string{
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
)

// layoutBody is a three-record body: laidOut, laidOut with e made, and
// laidOut again.
func layoutBody(e [2]string) string {
	rec := strings.Replace(laidOut, e[0], e[1], 1)
	return `{"records":[` + laidOut + `,` + rec + `,` + laidOut + `],"batch_id":"b"}`
}

// layoutBodies are the bodies of every edit, in and out of the layout.
var layoutBodies = func() (bodies []string) {
	for _, e := range append(inLayout, outOfLayout...) {
		bodies = append(bodies, layoutBody(e))
	}
	return bodies
}()

// TestReadFlowsMatchesDecoder checks the reader against the reference on
// the bodies above, and that bytes after the value are refused.
func TestReadFlowsMatchesDecoder(t *testing.T) {
	for _, body := range append(flowsBodies, layoutBodies...) {
		checkReader(t, []byte(body))
	}
	if _, _, err := decodeFlows([]byte(`{"records":[]} x`)); err == nil {
		t.Fatal("accepted bytes after the value")
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

	// A body that mixes laid-out records with records of every edit out
	// of the layout that still decodes: encoding/json reads it whole.
	var parts []string
	decoded := 0
	for i, e := range outOfLayout {
		if _, _, err := oracleFlows([]byte(layoutBody(e))); err != nil {
			continue
		}
		in := inLayout[i%len(inLayout)]
		parts = append(parts, laidOut, strings.Replace(laidOut, e[0], e[1], 1), strings.Replace(laidOut, in[0], in[1], 1))
		decoded++
	}
	mixed := []byte(`{"records":[` + strings.Join(parts, ",") + `]}`)
	if decoded < 20 {
		t.Fatalf("only %d of %d edits out of the layout decode", decoded, len(outOfLayout))
	}
	checkReader(t, mixed)
	if n := generalBodiesOf(mixed); n != 1 {
		t.Fatalf("the mixed body went to encoding/json %d times, want 1", n)
	}
}

// generalBodiesOf decodes body in one run and counts the bodies that
// went to encoding/json: 0 or 1.
func generalBodiesOf(body []byte) int64 {
	before := GeneralBodies()
	decodeFlowsRuns(body, 1, flowsRunBytes)
	return GeneralBodies() - before
}

// TestReadFlowsLayout: a body stays in the layout after each edit of a
// record that keeps it in appendRecord's layout and goes to
// encoding/json once after each that does not, and what
// Client.IngestBatch sends stays in the layout.
func TestReadFlowsLayout(t *testing.T) {
	for _, c := range []struct {
		edits   [][2]string
		general int64
	}{{inLayout, 0}, {outOfLayout, 1}} {
		for _, e := range c.edits {
			if n := generalBodiesOf([]byte(layoutBody(e))); n != c.general {
				t.Errorf("%q → %q: the body went to encoding/json %d times, want %d", e[0], e[1], n, c.general)
			}
		}
	}

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
	if n := generalBodiesOf(sent); n != 0 {
		t.Fatalf("the %d records Client.IngestBatch sent went to encoding/json", len(batch))
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

// TestReadFlowsSeparatorFloodBudget: a 1 MiB body of `{"records":[`
// and record separators alone, refused 400, allocates no more than
// floodBytesPerByte times its length and floodBytes beside — read in one
// run and in four, each of which sizes its own slice. The records'
// slices are sized by what the body's bytes can hold (recordsCap):
// 1.25 B a byte measured in one run, 2.19 in four. Sized by its
// separators alone, the one-run read took 25 MB, 24 B a byte.
func TestReadFlowsSeparatorFloodBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	const floodBytesPerByte, floodBytes = 3, 64 << 10
	body := []byte(`{"records":[` + strings.Repeat(string(flowsSep), (1<<20)/len(flowsSep)))
	for _, procs := range []int{1, 4} {
		_, bytes := budget.PerRun(3, func() {
			if _, _, err := decodeFlowsRuns(body, procs, flowsRunBytes); err == nil {
				t.Fatal("a separator flood decoded")
			}
		})
		t.Logf("%d run(s): %.0f bytes, %.2f a body byte", procs, bytes, bytes/float64(len(body)))
		if limit := floodBytesPerByte*len(body) + floodBytes; bytes > float64(limit) {
			t.Errorf("%d run(s): a %d-byte separator flood allocated %.0f bytes; budget %d", procs, len(body), bytes, limit)
		}
	}
}

// TestReadFlowsLaidOutAllocBudget: a body every record of which is laid
// out as appendRecord writes one reads in at most its records' two
// labels a record and a constant — the records, the batch ID, and at
// four runs each run's records and goroutine.
func TestReadFlowsLaidOutAllocBudget(t *testing.T) {
	budget.SkipUnderRace(t)
	batch := flowBatch(t)
	body, err := AppendFlows(nil, "probe", batch)
	if err != nil {
		t.Fatal(err)
	}
	const constant = 20 // 2 measured at one run, 16 at four
	for _, procs := range []int{1, 4} {
		var n int
		allocs, _ := budget.PerRun(5, func() {
			_, recs, err := decodeFlowsRuns(body, procs, flowsRunBytes)
			if err != nil {
				t.Fatal(err)
			}
			n = len(recs)
		})
		if n != len(batch) || allocs > float64(2*n+constant) {
			t.Fatalf("decoding %d laid-out records in %d runs allocates %.0f times; budget %d", n, procs, allocs, 2*len(batch)+constant)
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
	// The same batch indented, a body encoding/json reads.
	general, err := json.MarshalIndent(json.RawMessage(body), "", "  ")
	if err != nil {
		b.Fatal(err)
	}
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
		{"decode/codec-1run", func() error { _, _, err := decodeFlowsRuns(body, 1, flowsRunBytes); return err }},
		{"decode/general", func() error { _, _, err := decodeFlows(general); return err }},
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
// goes through checkReader, which wants the reference's records or error
// text, and through runs at a low threshold; a 400-record seed gives the runs bodies of many records. A
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
	// Records at each point where they leave appendRecord's layout, and
	// times on UTC days at the ends of months.
	for i, body := range layoutBodies {
		f.Add([]byte(body), "10.0.0.1", "e1", int64(951782400+i*86400), int64(i)*1000, int32(0), int64(i)*int64(time.Millisecond), int64(i), int64(i)<<40, int64(0), uint8(6+i%12), "b")
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
