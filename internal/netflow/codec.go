package netflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Text codec: one record per line,
//
//	start_unix_ms  duration_ms  src  dst  proto  sessions  bytes  packets
//
// separated by single spaces. Lines beginning with '#' and blank lines
// are ignored. This is the on-disk format emitted by cmd/siggen and
// consumed by cmd/sigtool.

// WriteText writes records in the text format.
func WriteText(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# start_ms duration_ms src dst proto sessions bytes packets"); err != nil {
		return err
	}
	for i := range records {
		r := &records[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("netflow: record %d: %w", i, err)
		}
		_, err := fmt.Fprintf(bw, "%d %d %s %s %s %d %d %d\n",
			r.Start.UnixMilli(), r.Duration.Milliseconds(),
			r.Src, r.Dst, r.Proto, r.Sessions, r.Bytes, r.Packets)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses records from the text format, rejecting malformed
// lines with the line number in the error.
func ReadText(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rec, err := parseTextLine(text)
		if err != nil {
			return nil, fmt.Errorf("netflow: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netflow: read: %w", err)
	}
	return out, nil
}

// durationFromMillis converts a wire millisecond count, rejecting
// values whose nanosecond form overflows time.Duration — the overflow
// would otherwise wrap silently, letting a corrupt field round-trip to
// a different duration (or a negative one) instead of an error.
func durationFromMillis(ms int64) (time.Duration, error) {
	if ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("duration %dms out of range", ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func parseTextLine(text string) (Record, error) {
	f := strings.Fields(text)
	if len(f) != 8 {
		return Record{}, fmt.Errorf("want 8 fields, got %d", len(f))
	}
	startMS, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad start: %w", err)
	}
	durMS, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad duration: %w", err)
	}
	proto, err := ParseProto(f[4])
	if err != nil {
		return Record{}, err
	}
	sessions, err := strconv.Atoi(f[5])
	if err != nil {
		return Record{}, fmt.Errorf("bad sessions: %w", err)
	}
	bytes, err := strconv.ParseInt(f[6], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad bytes: %w", err)
	}
	packets, err := strconv.ParseInt(f[7], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad packets: %w", err)
	}
	dur, err := durationFromMillis(durMS)
	if err != nil {
		return Record{}, err
	}
	rec := Record{
		Src:      f[2],
		Dst:      f[3],
		Start:    time.UnixMilli(startMS).UTC(),
		Duration: dur,
		Proto:    proto,
		Sessions: sessions,
		Bytes:    bytes,
		Packets:  packets,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Binary codec: a compact length-prefixed little-endian framing with a
// magic header, for large captures where the text form is too slow.
//
//	header:  "NFB1"
//	record:  u16 srcLen, src, u16 dstLen, dst,
//	         i64 startUnixMs, i64 durationMs,
//	         u8 proto, u32 sessions, i64 bytes, i64 packets
//
// The per-record encoding is one pair of functions over bytes,
// AppendRecordBinary and DecodeRecordBinary, which the stream form
// below and other framings — the internal/wal write-ahead log wraps
// each record in a CRC frame — share; there is no second reader or
// writer of it.

var binaryMagic = [4]byte{'N', 'F', 'B', '1'}

// recordFixedLen is the encoded size of a record's fixed-width fields,
// everything after the two labels.
const recordFixedLen = 8 + 8 + 1 + 4 + 8 + 8

// MinRecordBinaryLen is the shortest encoding a valid record has: two
// one-byte labels.
const MinRecordBinaryLen = 2 + 1 + 2 + 1 + recordFixedLen

// AppendRecordBinary appends r's binary encoding (no stream magic) to
// dst, validating r first; on error dst is returned as it came.
func AppendRecordBinary(dst []byte, r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return dst, err
	}
	if len(r.Src) > 0xFFFF || len(r.Dst) > 0xFFFF {
		return dst, fmt.Errorf("label too long")
	}
	le := binary.LittleEndian
	dst = le.AppendUint16(dst, uint16(len(r.Src)))
	dst = append(dst, r.Src...)
	dst = le.AppendUint16(dst, uint16(len(r.Dst)))
	dst = append(dst, r.Dst...)
	dst = le.AppendUint64(dst, uint64(r.Start.UnixMilli()))
	dst = le.AppendUint64(dst, uint64(r.Duration.Milliseconds()))
	dst = append(dst, uint8(r.Proto))
	dst = le.AppendUint32(dst, uint32(r.Sessions))
	dst = le.AppendUint64(dst, uint64(r.Bytes))
	dst = le.AppendUint64(dst, uint64(r.Packets))
	return dst, nil
}

// DecodeRecordBinary decodes the record encoded at the start of b and
// reports how many bytes it occupied; it reads none past them. b
// ending before the record does is io.ErrUnexpectedEOF. The record is
// validated before being returned, and shares no memory with b.
func DecodeRecordBinary(b []byte) (rec Record, n int, err error) {
	le := binary.LittleEndian
	if len(b) < 2 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	srcLen := int(le.Uint16(b))
	if len(b) < 2+srcLen+2 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	dstLen := int(le.Uint16(b[2+srcLen:]))
	n = 2 + srcLen + 2 + dstLen + recordFixedLen
	if len(b) < n {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	// Both labels in one allocation: joined on the stack when they fit,
	// copied out once, and sliced apart.
	var stack [128]byte
	joined := append(stack[:0], b[2:2+srcLen]...)
	joined = append(joined, b[2+srcLen+2:2+srcLen+2+dstLen]...)
	labels := string(joined)
	f := b[n-recordFixedLen : n]
	dur, err := durationFromMillis(int64(le.Uint64(f[8:])))
	if err != nil {
		return Record{}, 0, err
	}
	rec = Record{
		Src:      labels[:srcLen],
		Dst:      labels[srcLen:],
		Start:    time.UnixMilli(int64(le.Uint64(f))).UTC(),
		Duration: dur,
		Proto:    Proto(f[16]),
		Sessions: int(le.Uint32(f[17:])),
		Bytes:    int64(le.Uint64(f[21:])),
		Packets:  int64(le.Uint64(f[29:])),
	}
	if err := rec.Validate(); err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// WriteBinary writes records in the binary format.
func WriteBinary(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf []byte
	for i := range records {
		var err error
		if buf, err = AppendRecordBinary(buf[:0], &records[i]); err != nil {
			return fmt.Errorf("netflow: record %d: %w", i, err)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses records from the binary format, decoding the stream
// frame by frame through a buffered reader. A stream shorter than the
// magic, or a record cut short by the end of the input, is corruption
// (io.ErrUnexpectedEOF), not a clean end.
func ReadBinary(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("netflow: read magic: %w", unexpectedEOF(err))
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("netflow: bad magic %q", magic[:])
	}
	var out []Record
	var frame []byte
	for {
		var err error
		frame, err = readFrame(br, frame[:0])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("netflow: record %d: %w", len(out), err)
		}
		rec, _, err := DecodeRecordBinary(frame)
		if err != nil {
			return nil, fmt.Errorf("netflow: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// readFrame appends the next record's encoding, read from br, to frame:
// its two length-prefixed labels, then the fixed-width fields. A stream
// that ends before the record's first byte is io.EOF, one that ends
// inside it io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, frame []byte) ([]byte, error) {
	le := binary.LittleEndian
	frame, err := readMore(br, frame, 2)
	if err != nil {
		return frame, err
	}
	srcLen := int(le.Uint16(frame))
	if frame, err = readMore(br, frame, srcLen+2); err != nil {
		return frame, unexpectedEOF(err)
	}
	dstLen := int(le.Uint16(frame[2+srcLen:]))
	frame, err = readMore(br, frame, dstLen+recordFixedLen)
	return frame, unexpectedEOF(err)
}

// readMore appends the next n bytes of br to b.
func readMore(br *bufio.Reader, b []byte, n int) ([]byte, error) {
	at := len(b)
	b = slices.Grow(b, n)[:at+n]
	_, err := io.ReadFull(br, b[at:])
	return b, err
}

// unexpectedEOF reads an end of input as corruption: a stream that ends
// where more of it is due.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
