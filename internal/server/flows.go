package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
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

// ReadFlows reads a POST /v1/flows body straight into records, without
// reflection; with AppendFlows it is the one flows codec, held to
// encoding/json over IngestRequest and RecordJSON (DESIGN.md §7). On
// failure it has already answered — 413 for a body over MaxBodyBytes;
// 400 "bad request body: …" for a body that is not a valid batch,
// "record N: …" for a record whose fields do not convert — and returns
// ok false.
func ReadFlows(w http.ResponseWriter, r *http.Request) (batchID string, recs []netflow.Record, ok bool) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, MaxBodyBytes)
	if err != nil {
		WriteError(w, bodyStatus(err), "bad request body: %v", err)
		return "", nil, false
	}
	if batchID, recs, err = decodeFlows(body); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return "", nil, false
	}
	return batchID, recs, true
}

// decodeFlows parses a whole POST /v1/flows body, its records in up to
// GOMAXPROCS runs. Its error is the 400's message, and the rest is then
// to be ignored.
func decodeFlows(body []byte) (batchID string, recs []netflow.Record, err error) {
	return decodeFlowsRuns(body, runtime.GOMAXPROCS(0), flowsRunBytes)
}

// decodeFlowsRuns is decodeFlows with k = min(procs, len(body)/runBytes)
// runs. Runs 2..k are decoded on their own goroutines while this one
// parses the body as a single reader does; reaching the start of run 2
// at a record boundary, it takes their records and goes on where the
// last one stopped. A run that did not end exactly where the next one
// begins, or met any error, is dropped, and this parse reads on through
// its bytes itself: its records, or its error, are a single reader's.
func decodeFlowsRuns(body []byte, procs, runBytes int) (batchID string, recs []netflow.Record, err error) {
	d := flowsReader{b: body, join: -1}
	if runs := cutRuns(body, min(procs, len(body)/runBytes)); len(runs) > 0 {
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(r *flowRun) {
				defer wg.Done()
				r.decode(body)
			}(&runs[i])
		}
		defer wg.Wait()
		d.join = runs[0].start
		d.runs = func() ([]flowRun, bool) {
			wg.Wait()
			for _, r := range runs {
				if !r.ok {
					return nil, false
				}
			}
			return runs, true
		}
	}
	if batchID, recs = d.request(); d.err != nil {
		d.recErr = fmt.Errorf("bad request body: %w", d.err)
	}
	return batchID, recs, d.recErr
}

// flowRun is a run of whole records, body[start:end): runs 2..k of a
// body. A run but the last ends before the comma that precedes the
// next; the last runs to the body's end, and end is then set to where
// its records stop.
type flowRun struct {
	start, end int
	last       bool
	recs       []netflow.Record
	ok         bool
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
// separator follows. A cut may fall inside a string; the parse then
// never meets it at a record boundary, and the runs go unused.
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

// decode reads the run's records. It is ok when every record parsed and
// converted and, but for the last run, the run ends exactly at its end.
// The last one's records end at the first byte after a record that is
// not a comma; whatever that byte is, the main parse reads on from it
// as a single one would.
func (r *flowRun) decode(body []byte) {
	d := flowsReader{b: body[r.start:r.end], join: -1}
	recs := make([]netflow.Record, 0, recordsCap(d.b))
	for {
		rec, err := d.record()
		if d.err != nil || err != nil {
			return
		}
		recs = append(recs, rec)
		d.space()
		if !d.peek(',') {
			break
		}
		d.space()
	}
	r.ok, r.end, r.recs = r.last || d.i == len(d.b), r.start+d.i, recs
}

// flowsReader is a cursor over a body. Its first syntax or type error
// ends the input. A record's conversion error, in recErr, counts once
// the whole body has parsed, as when encoding/json decoded first.
type flowsReader struct {
	b           []byte
	i           int
	err, recErr error
	// join is where the records of runs, when it reports them ok, take
	// over from this parse: the start of a run, or -1.
	join int
	runs func() ([]flowRun, bool)
}

func (d *flowsReader) request() (batchID string, recs []netflow.Record) {
	if d.space(); !d.null() {
		seen := false
		d.object(func(key []byte) {
			switch string(key) {
			case "records":
				if seen {
					d.fail(`"records" given twice`)
				}
				seen, recs = true, d.records()
			case "batch_id":
				if !d.null() {
					batchID = d.str()
				}
			default:
				d.fail("unknown field %q", key)
			}
		})
	}
	if d.space(); d.i < len(d.b) {
		d.fail("syntax error after the top-level value at offset %d", d.i)
	}
	return batchID, recs
}

// records reads the "records" value: an array of record objects, or
// null for none. Its slice is sized by recordsCap: a count that is not
// exact costs memory or a regrowth, not records.
func (d *flowsReader) records() (recs []netflow.Record) {
	if d.null() {
		return nil
	}
	d.want('[')
	if n := recordsCap(d.b[d.i:]); n > 1 {
		recs = make([]netflow.Record, 0, n)
	}
	for d.space(); d.err == nil && !d.peek(']'); d.space() {
		if len(recs) > 0 {
			d.want(',')
			d.space()
		}
		if d.i == d.join {
			d.join = -1
			if runs, ok := d.runs(); ok {
				for _, r := range runs {
					recs = append(recs, r.recs...)
				}
				d.i = runs[len(runs)-1].end
				continue
			}
		}
		rec, err := d.record()
		if d.err != nil {
			d.err = fmt.Errorf("record %d: %w", len(recs), d.err)
		}
		if err != nil && d.recErr == nil {
			d.recErr = fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// record reads one element of the records array and converts it. A
// null record is the zero RecordJSON. A record laid out as appendRecord
// writes one is read through a layout cursor; any other is read again
// from its start by the general reader (DESIGN.md §7).
func (d *flowsReader) record() (netflow.Record, error) {
	var rj RecordJSON
	if l := (layout{b: d.b, i: d.i, ok: true}); l.record(&rj) {
		d.i = l.i
	} else {
		if onGeneralRecord != nil {
			onGeneralRecord()
		}
		rj = RecordJSON{}
		if !d.null() {
			d.object(func(key []byte) { d.field(&rj, key) })
		}
	}
	return rj.record()
}

// onGeneralRecord, when set, is called for each record the general
// reader reads: tests count the records that leave the layout with it.
var onGeneralRecord func()

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
// backslash: the tokens the general reader takes as they are, without
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
// other zone or spelling is left to the general reader.
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

// field reads one record field's value into rj. Of a key given twice
// the last wins, and null leaves the field as it was.
func (d *flowsReader) field(rj *RecordJSON, key []byte) {
	switch string(key) {
	case "src", "dst", "start", "duration_ms", "sessions", "bytes", "packets", "proto":
	default:
		d.fail("unknown field %q", key)
	}
	if d.err != nil || d.null() {
		return
	}
	switch string(key) {
	case "src":
		rj.Src = d.str()
	case "dst":
		rj.Dst = d.str()
	case "start":
		// The raw token, as encoding/json hands it to the Unmarshaler.
		if tok, _ := d.strToken(); d.err == nil {
			if err := rj.Start.UnmarshalJSON(tok); err != nil {
				d.fail("%v", err)
			}
		}
	case "duration_ms":
		rj.DurationMS = d.int(64)
	case "sessions":
		rj.Sessions = int(d.int(strconv.IntSize))
	case "bytes":
		rj.Bytes = d.int(64)
	case "packets":
		rj.Packets = d.int(64)
	case "proto":
		rj.Proto = d.str()
	}
}

// object reads an object, calling member with the cursor at each value;
// key is valid during the call.
func (d *flowsReader) object(member func(key []byte)) {
	d.want('{')
	d.space()
	for n := 0; d.err == nil && !d.peek('}'); n++ {
		if n > 0 {
			d.want(',')
			d.space()
		}
		tok, plain := d.strToken()
		key := tok
		if plain {
			key = tok[1 : len(tok)-1]
		} else if d.err == nil {
			key = []byte(d.unquote(tok))
		}
		d.space()
		d.want(':')
		d.space()
		member(key)
		d.space()
	}
}

// strToken reads a string token, quotes included. plain reports that
// its content is ASCII without escapes, and so the string itself; any
// other token is unquoted by encoding/json, so escapes and invalid UTF-8
// come out exactly as they do there.
func (d *flowsReader) strToken() (tok []byte, plain bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		d.fail("syntax error looking for a string at offset %d", d.i)
		return nil, false
	}
	i := d.i + 1
	for plain = true; i < len(d.b) && d.b[i] != '"' && d.b[i] >= 0x20; i++ {
		switch {
		case d.b[i] == '\\':
			plain = false
			i++ // the escaped byte
		case d.b[i] >= 0x80:
			plain = false
		}
	}
	if i >= len(d.b) || d.b[i] != '"' {
		d.fail("syntax error in the string at offset %d", d.i)
		return nil, false
	}
	tok, d.i = d.b[d.i:i+1], i+1
	return tok, plain
}

func (d *flowsReader) str() string {
	tok, plain := d.strToken()
	switch {
	case d.err != nil:
		return ""
	case !plain:
		return d.unquote(tok)
	case string(tok) == `"tcp"`: // the protocols every record names, without an allocation
		return "tcp"
	case string(tok) == `"udp"`:
		return "udp"
	}
	return string(tok[1 : len(tok)-1])
}

// unquote is encoding/json's reading of a string token.
func (d *flowsReader) unquote(tok []byte) (s string) {
	if err := json.Unmarshal(tok, &s); err != nil {
		d.fail("%v", err)
	}
	return s
}

// int reads a number that encoding/json would store in an integer of
// bits bits: one in its range, without fraction or exponent.
func (d *flowsReader) int(bits int) int64 {
	start := d.i
	for d.i < len(d.b) && strings.IndexByte("-+.eE0123456789", d.b[d.i]) >= 0 {
		d.i++
	}
	tok := d.b[start:d.i]
	n, err := strconv.ParseInt(string(tok), 10, bits)
	// ParseInt also takes a plus sign and leading zeros, which JSON does not.
	if digits, _ := bytes.CutPrefix(tok, []byte("-")); err != nil || tok[0] == '+' || len(digits) > 1 && digits[0] == '0' {
		d.fail("number %q at offset %d is not an integer in int%d's range", tok, start, bits)
	}
	return n
}

// null consumes a null literal if one is next.
func (d *flowsReader) null() bool {
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// peek consumes c if it is next.
func (d *flowsReader) peek(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *flowsReader) want(c byte) {
	if !d.peek(c) {
		d.fail("syntax error looking for %q at offset %d", c, d.i)
	}
}

func (d *flowsReader) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// fail keeps the first error and ends the input.
func (d *flowsReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.i = len(d.b)
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
