package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
	"unicode/utf8"

	"graphsig/internal/netflow"
)

// FlowsBinaryType is the content type of a POST /v1/flows body in
// netflow's binary stream: netflow.BinaryMagic, then each record as
// netflow.AppendRecordBinary writes it. The batch ID travels as the
// batch_id query parameter, so a netflow.WriteBinary capture is a body
// as it is. Client.IngestBatch sends its batches in it, and so the
// router its sub-batches to its shards.
const FlowsBinaryType = "application/x-netflow-binary"

// binaryRecordBytes is what one record takes in a binary body, rounded
// up: a datagen record is 61 bytes. flowsRequest sizes its buffer from
// it.
const binaryRecordBytes = 64

// ReadFlows reads a POST /v1/flows body into records, in the format its
// content type names: a FlowsBinaryType body record by record, any
// other whole by encoding/json into IngestRequest, as DecodeJSON reads
// the other routes' bodies (DESIGN.md §7). On failure it has already
// answered — 413 for a body over MaxBodyBytes; 400 "bad request body:
// …" for a body that is not a batch, "record N: …" for a record that
// does not decode or convert — and returns ok false.
func ReadFlows(w http.ResponseWriter, r *http.Request) (batchID string, recs []netflow.Record, ok bool) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, MaxBodyBytes)
	switch {
	case r.Header.Get("Content-Type") != FlowsBinaryType:
		batchID, recs, err = generalFlows(replay(body, err))
	case err != nil:
		err = fmt.Errorf("bad request body: %w", err)
	default:
		batchID = r.URL.Query().Get("batch_id")
		recs, err = binaryFlows(body)
	}
	if err != nil {
		WriteError(w, bodyStatus(err), "%v", err)
		return "", nil, false
	}
	return batchID, recs, true
}

// binaryFlows reads a whole FlowsBinaryType body into a slice sized by
// one pass over its records' length prefixes. Its error is the 400's
// message.
func binaryFlows(body []byte) ([]netflow.Record, error) {
	rest, ok := bytes.CutPrefix(body, []byte(netflow.BinaryMagic))
	if !ok {
		return nil, fmt.Errorf("bad request body: no %q header", netflow.BinaryMagic)
	}
	recs := make([]netflow.Record, 0, netflow.CountRecordsBinary(rest))
	for len(rest) > 0 {
		rec, n, err := netflow.DecodeRecordBinary(rest)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs, rest = append(recs, rec), rest[n:]
	}
	return recs, nil
}

// generalFlows reads a JSON body, or one that was not read whole, as
// DecodeJSON reads one into IngestRequest, converts its records, and
// counts it in GeneralBodies.
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

// flowsRequest is the POST /v1/flows request Client.IngestBatch sends
// for a batch: its path, content type and body. The records go as a
// FlowsBinaryType stream, which holds each start as the millisecond a
// node keeps of it (Start.Truncate(time.Millisecond), pre-1970 starts
// included), when every one of them reads back from that stream as a
// node reads it from the JSON body, and the batch ID is UTF-8.
// Otherwise the batch goes as json.Marshal writes its IngestRequest, so
// that a record a node rejects reaches it and is rejected there, and
// one json.Marshal refuses is refused here, as before: every batch has
// the answer its JSON body has.
func flowsRequest(batchID string, records []netflow.Record) (path, contentType string, body []byte, err error) {
	if !utf8.ValidString(batchID) { // json.Marshal would mend it
		return jsonFlowsRequest(batchID, records)
	}
	body = append(make([]byte, 0, len(netflow.BinaryMagic)+binaryRecordBytes*len(records)), netflow.BinaryMagic...)
	for i := range records {
		if body, err = netflow.AppendRecordBinary(body, &records[i]); err != nil || !readsAsJSON(&records[i]) {
			return jsonFlowsRequest(batchID, records)
		}
	}
	path = "/v1/flows"
	if batchID != "" {
		path += "?batch_id=" + url.QueryEscape(batchID)
	}
	return path, FlowsBinaryType, body, nil
}

// jsonFlowsRequest is the POST /v1/flows request of a batch as
// json.Marshal writes its IngestRequest.
func jsonFlowsRequest(batchID string, records []netflow.Record) (path, contentType string, body []byte, err error) {
	req := IngestRequest{Records: make([]RecordJSON, len(records)), BatchID: batchID}
	for i, r := range records {
		req.Records[i] = RecordToJSON(r)
	}
	body, err = json.Marshal(req)
	return "/v1/flows", "application/json", body, err
}

// The seconds since 1970, on a start's own clock, of the years
// Time.MarshalJSON writes, 0 to 9999: [minJSONClock, maxJSONClock).
const minJSONClock, maxJSONClock = -62167219200, 253402300800

// zeroMilli is the zero time in milliseconds since 1970.
var zeroMilli = time.Time{}.UnixMilli()

// readsAsJSON reports whether r, once AppendRecordBinary has taken it,
// reads back from its encoding as from json.Marshal's body: its labels
// are UTF-8, which json.Marshal would mend; its start is not within the
// zero time's millisecond, which the stream holds as the zero time, a
// start DecodeRecordBinary refuses and a node rejects; and its start is
// one Time.MarshalJSON writes — a year of four digits, a zone less than
// a day off UTC.
func readsAsJSON(r *netflow.Record) bool {
	_, off := r.Start.Zone()
	clock := r.Start.Unix() + int64(off)
	return utf8.ValidString(r.Src) && utf8.ValidString(r.Dst) && r.Start.UnixMilli() != zeroMilli &&
		off > -24*60*60 && off < 24*60*60 && clock >= minJSONClock && clock < maxJSONClock
}
