package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"graphsig/internal/netflow"
)

// flowsRunBytes is the least body ReadFlows splits into runs and the
// least bytes a run is given: a goroutine costs more than a smaller run
// saves. It is also where readBody's buffer starts for a long body.
const flowsRunBytes = 64 << 10

// flowRecordBytes is what one record takes in a body, rounded up: a
// datagen record is 157 bytes. Client.IngestBatch sizes its buffer from
// it.
const flowRecordBytes = 192

// ReadFlows reads a POST /v1/flows body straight into records: a body
// laid out as AppendFlows writes one through the layout cursor, without
// reflection, and any other whole through encoding/json, as DecodeJSON
// reads the other routes' bodies (DESIGN.md §7). On failure it has
// already answered — 413 for a body over MaxBodyBytes; 400 "bad request
// body: …" for a body that is not a valid batch, "record N: …" for a
// record whose fields do not convert — and returns ok false.
func ReadFlows(w http.ResponseWriter, r *http.Request) (batchID string, recs []netflow.Record, ok bool) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, MaxBodyBytes)
	if err == nil {
		batchID, recs, err = decodeFlows(body)
	} else {
		batchID, recs, err = generalFlows(replay(body, err))
	}
	if err != nil {
		WriteError(w, bodyStatus(err), "%v", err)
		return "", nil, false
	}
	return batchID, recs, true
}

// decodeFlows reads a whole POST /v1/flows body, its records in up to
// GOMAXPROCS runs. Its error is the 400's message, and the rest is then
// to be ignored.
func decodeFlows(body []byte) (batchID string, recs []netflow.Record, err error) {
	return decodeFlowsRuns(body, runtime.GOMAXPROCS(0), flowsRunBytes)
}

// decodeFlowsRuns is decodeFlows with k = min(procs, len(body)/runBytes)
// runs. The body is read laid out in k runs, or by encoding/json if it
// departs from the layout. The runs need no second, single-run read: a
// cut falls only at a `},{"`, which a laid-out string cannot hold, so
// every run of a body laid out to its end is laid out, and a run that
// departs means the body does.
func decodeFlowsRuns(body []byte, procs, runBytes int) (batchID string, recs []netflow.Record, err error) {
	ok, batchID, recs, err := laidOutFlows(body, cutRuns(body, min(procs, len(body)/runBytes)))
	if !ok {
		return generalFlows(bytes.NewReader(body))
	}
	return batchID, recs, err
}

// generalFlows reads a body that left the layout, or was not read
// whole, as DecodeJSON reads one into IngestRequest, converts its
// records, and counts it in GeneralBodies.
func generalFlows(body io.Reader) (batchID string, recs []netflow.Record, err error) {
	generalBodies.Add(1)
	var req IngestRequest
	if err := decodeStrict(body, &req); err != nil {
		return "", nil, fmt.Errorf("bad request body: %w", err)
	}
	recs = make([]netflow.Record, len(req.Records))
	for i, rj := range req.Records {
		if recs[i], err = rj.record(); err != nil {
			return "", nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return req.BatchID, recs, nil
}

// laidOutFlows reads body as AppendFlows lays one out: `{"records":[`,
// laid-out records, `]`, an optional `,"batch_id":` with a plain string,
// `}` and whitespace. Its records are read in runs: run 1, from the
// first record to the runs 2..k cut holds, here, into a slice sized for
// the whole array, and those each on its own goroutine. ok is false when
// any run or the rest of the body departs from the layout; err is then
// to be ignored, and otherwise is the first record's in order whose
// fields do not convert.
func laidOutFlows(body []byte, cut []flowRun) (ok bool, batchID string, recs []netflow.Record, err error) {
	l := layout{b: body, ok: true}
	if !l.lit(`{"records":[`) {
		return false, "", nil, nil
	}
	if !l.lit("]") {
		all := make([]netflow.Record, 0, recordsCap(body[l.i:]))
		runs := append([]flowRun{{start: l.i, end: len(body), last: true, recs: all}}, cut...)
		if len(cut) > 0 {
			runs[0].end, runs[0].last = cut[0].start-len(","), false
		}
		var wg sync.WaitGroup
		for i := range cut {
			wg.Add(1)
			go func(r *flowRun) {
				defer wg.Done()
				r.decode(body)
			}(&runs[1+i])
		}
		runs[0].decode(body)
		wg.Wait()
		n := 0
		for _, r := range runs {
			if !r.ok {
				return false, "", nil, nil
			}
			if r.err != nil && err == nil {
				err = fmt.Errorf("record %d: %w", n+r.bad, r.err)
			}
			n += len(r.recs)
		}
		recs = runs[0].recs
		for _, r := range runs[1:] {
			recs = append(recs, r.recs...)
		}
		l.i = runs[len(runs)-1].end
		l.want("]")
	}
	if l.lit(`,"batch_id":`) {
		batchID = l.str()
	}
	l.want("}")
	return l.end(), batchID, recs, err
}

// flowRun is a run of whole records, body[start:end). A run but the
// last ends before the comma that precedes the next; the last runs to
// the body's end, and end is then set to where its records stop.
type flowRun struct {
	start, end int
	last       bool
	recs       []netflow.Record
	ok         bool
	// err is the first conversion error of the run's records, that of
	// recs[bad].
	err error
	bad int
}

// flowsSep is what AppendFlows writes between two records.
var flowsSep = []byte(`},{"`)

// minRecordBytes is the length of the shortest record appendRecord
// writes: empty labels, no optional member, a whole second in UTC.
var minRecordBytes = func() int {
	b, _ := appendRecord(nil, &netflow.Record{Proto: netflow.TCP})
	return len(b)
}()

// recordsCap is the capacity for the records of b: one more than the
// separators it holds, but no more records than its bytes hold at
// minRecordBytes each, so that a flood of separators allocates in
// proportion to its length.
func recordsCap(b []byte) int {
	return min(bytes.Count(b, flowsSep), len(b)/minRecordBytes) + 1
}

// cutRuns cuts a body that starts as AppendFlows starts one into k runs
// at the first record separator after each k-th of its bytes, and
// returns runs 2..k: none when k < 2, the body starts otherwise, or no
// separator follows. A cut may fall inside a string; a run then departs
// from the layout, and the runs go unused.
func cutRuns(body []byte, k int) []flowRun {
	if k < 2 || !bytes.HasPrefix(body, []byte(`{"records":[`)) {
		return nil
	}
	var runs []flowRun
	for j := 1; j < k; j++ {
		from := j * len(body) / k
		if n := len(runs); n > 0 {
			from = max(from, runs[n-1].start)
		}
		at := bytes.Index(body[from:], flowsSep)
		if at < 0 {
			break
		}
		runs = append(runs, flowRun{start: from + at + len("},")})
	}
	for i := range runs {
		if i+1 < len(runs) {
			runs[i].end = runs[i+1].start - len(",")
		} else {
			runs[i].end, runs[i].last = len(body), true
		}
	}
	return runs
}

// decode reads the run's records, each laid out, and converts them,
// appending them to recs, which it sizes from the run's bytes unless
// given. It is ok when every record was laid out and, but for the last
// run, the run ends exactly at its end. The last one's records end at
// the first byte after a record that is not a comma; laidOutFlows reads
// on from it.
func (r *flowRun) decode(body []byte) {
	l := layout{b: body[:r.end], i: r.start, ok: true}
	if r.recs == nil {
		r.recs = make([]netflow.Record, 0, recordsCap(body[r.start:r.end]))
	}
	for {
		var rj RecordJSON
		if !l.record(&rj) {
			return
		}
		rec, err := rj.record()
		if err != nil && r.err == nil {
			r.err, r.bad = err, len(r.recs)
		}
		if r.recs = append(r.recs, rec); !l.lit(",") {
			break
		}
	}
	r.ok, r.end = r.last || l.i == r.end, l.i
}

// layout is a cursor that reads a record only as appendRecord lays one
// out: its keys in order with nothing between them, plain ASCII strings,
// integers of digits alone and UTC start times. ok turns false at the
// first byte that departs from that, and every read after it is void.
type layout struct {
	b  []byte
	i  int
	ok bool
}

// record reads the record at the cursor into rj and reports whether it
// was laid out; when it was not, rj is to be ignored.
func (l *layout) record(rj *RecordJSON) bool {
	if !l.lit(`{"src":`) { // a body of another producer, most likely
		return false
	}
	rj.Src = l.str()
	l.want(`,"dst":`)
	rj.Dst = l.str()
	l.want(`,"start":`)
	rj.Start = l.time()
	if l.lit(`,"duration_ms":`) {
		rj.DurationMS = l.uint()
	}
	l.want(`,"sessions":`)
	if n := l.uint(); int64(int(n)) == n {
		rj.Sessions = int(n)
	} else {
		l.ok = false
	}
	if l.lit(`,"bytes":`) {
		rj.Bytes = l.uint()
	}
	if l.lit(`,"packets":`) {
		rj.Packets = l.uint()
	}
	l.want(`,"proto":`)
	rj.Proto = l.str()
	l.want(`}`)
	return l.ok
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

// str reads a string of ASCII bytes from 0x20 up, without a quote or
// backslash: the strings encoding/json reads as they are, without
// unquoting.
func (l *layout) str() string {
	if !l.lit(`"`) {
		l.ok = false
		return ""
	}
	start := l.i
	for ; l.i < len(l.b); l.i++ {
		c := l.b[l.i]
		if c == '"' {
			tok := l.b[start:l.i]
			l.i++
			switch string(tok) {
			case "tcp":
				return "tcp"
			case "udp":
				return "udp"
			}
			return string(tok)
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	l.ok = false
	return ""
}

// uint reads an integer of 1 to 18 digits without a leading zero, so one
// that int64 holds. What follows it must begin the next key or close
// the record, so a fraction, exponent or sign after it leaves the layout.
func (l *layout) uint() int64 {
	if !l.ok {
		return 0
	}
	start := l.i
	var n int64
	for ; l.i < len(l.b) && l.b[l.i]-'0' <= 9; l.i++ {
		n = n*10 + int64(l.b[l.i]-'0')
	}
	if width := l.i - start; width == 0 || width > 18 || width > 1 && l.b[start] == '0' {
		l.ok = false
	}
	return n
}

// time reads "YYYY-MM-DDTHH:MM:SS", an optional fraction of 1 to 9
// digits after a '.', and "Z" — every field in range, the day within its
// month — as the UTC time time.Time.UnmarshalJSON returns for it. Any
// other zone or spelling departs from the layout.
func (l *layout) time() time.Time {
	const form = `"2006-01-02T15:04:05`
	b := l.b[l.i:]
	if !l.ok || len(b) < len(form)+len(`Z"`) || b[0] != '"' || b[5] != '-' || b[8] != '-' || b[11] != 'T' || b[14] != ':' || b[17] != ':' {
		l.ok = false
		return time.Time{}
	}
	year, month, day := digits(b[1:5]), digits(b[6:8]), digits(b[9:11])
	hour, minute, sec := digits(b[12:14]), digits(b[15:17]), digits(b[18:20])
	j, nsec := len(form), 0
	if b[j] == '.' {
		j++
		n := 0
		for ; j < len(b) && b[j]-'0' <= 9 && n < 10; j, n = j+1, n+1 {
			nsec = nsec*10 + int(b[j]-'0')
		}
		if n == 0 || n > 9 {
			l.ok = false
			return time.Time{}
		}
		for ; n < 9; n++ {
			nsec *= 10
		}
	}
	if len(b)-j < len(`Z"`) || b[j] != 'Z' || b[j+1] != '"' ||
		year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 {
		l.ok = false
		return time.Time{}
	}
	l.i += j + len(`Z"`)
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC)
}

// digits is the value of a run of decimal digits, or -1 if a byte is not
// one.
func digits(b []byte) int {
	n := 0
	for _, c := range b {
		if c-'0' > 9 {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// daysIn is the number of days in month of the proleptic Gregorian year.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// AppendFlows appends the POST /v1/flows body of records and batchID to
// dst: byte for byte what json.Marshal writes for the IngestRequest
// RecordToJSON makes of them. Its one error is a start time that
// json.Marshal refuses too.
func AppendFlows(dst []byte, batchID string, records []netflow.Record) ([]byte, error) {
	dst = append(dst, `{"records":[`...)
	for i := range records {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendRecord(dst, &records[i]); err != nil {
			return dst, fmt.Errorf("record %d: %w", i, err)
		}
	}
	dst = append(dst, ']')
	if batchID != "" {
		dst = appendString(append(dst, `,"batch_id":`...), batchID)
	}
	return append(dst, '}'), nil
}

// appendRecord writes RecordJSON's fields in their declared order,
// leaving out the omitempty ones at zero; Proto.String is never empty.
func appendRecord(dst []byte, r *netflow.Record) ([]byte, error) {
	dst = appendString(append(dst, `{"src":`...), r.Src)
	dst = appendString(append(dst, `,"dst":`...), r.Dst)
	dst, err := appendTime(append(dst, `,"start":`...), r.Start)
	if err != nil {
		return dst, err
	}
	if ms := r.Duration.Milliseconds(); ms != 0 {
		dst = strconv.AppendInt(append(dst, `,"duration_ms":`...), ms, 10)
	}
	dst = strconv.AppendInt(append(dst, `,"sessions":`...), int64(r.Sessions), 10)
	if r.Bytes != 0 {
		dst = strconv.AppendInt(append(dst, `,"bytes":`...), r.Bytes, 10)
	}
	if r.Packets != 0 {
		dst = strconv.AppendInt(append(dst, `,"packets":`...), r.Packets, 10)
	}
	dst = appendString(append(dst, `,"proto":`...), r.Proto.String())
	return append(dst, '}'), nil
}

// appendString quotes s as json.Marshal does. Printable ASCII other
// than the quote, the backslash and the HTML-escaped <>& is written as
// it is; anything else goes to json.Marshal itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendTime quotes t as time.Time.MarshalJSON does, refusing the times
// it refuses: RFC 3339 has four digits for the year and two for the
// zone's hours.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, fmt.Errorf("start year %d outside of range [0,9999]", y)
	}
	if _, off := t.Zone(); off <= -24*60*60 || off >= 24*60*60 {
		return dst, fmt.Errorf("start zone offset %ds outside of range (-24h,24h)", off)
	}
	return append(t.AppendFormat(append(dst, '"'), time.RFC3339Nano), '"'), nil
}
