package netflow

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecords() []Record {
	base := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	return []Record{
		{Src: "10.0.0.1", Dst: "198.18.0.9", Start: base, Duration: 3 * time.Second, Sessions: 2, Bytes: 1200, Packets: 14, Proto: TCP},
		{Src: "10.0.0.2", Dst: "198.18.0.9", Start: base.Add(time.Hour), Duration: 0, Sessions: 1, Bytes: 0, Packets: 0, Proto: UDP},
		{Src: "hostA", Dst: "hostB", Start: base.Add(26 * time.Hour), Duration: 90 * time.Minute, Sessions: 7, Bytes: 1 << 30, Packets: 99999, Proto: TCP},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	records := sampleRecords()
	if err := WriteText(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, records)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	records := sampleRecords()
	if err := WriteBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, records)
	}
}

// Property: both codecs round-trip arbitrary valid records.
func TestCodecRoundTripProperty(t *testing.T) {
	gen := func(seed int64) []Record {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		out := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			src := "h" + string(rune('a'+rng.Intn(20)))
			dst := "x" + string(rune('a'+rng.Intn(20)))
			out = append(out, Record{
				Src:      src,
				Dst:      dst,
				Start:    time.UnixMilli(int64(rng.Intn(1 << 30))).UTC(),
				Duration: time.Duration(rng.Intn(1e6)) * time.Millisecond,
				Sessions: 1 + rng.Intn(100),
				Bytes:    int64(rng.Intn(1 << 20)),
				Packets:  int64(rng.Intn(1 << 16)),
				Proto:    TCP,
			})
		}
		return out
	}
	f := func(seed int64) bool {
		records := gen(seed)
		if len(records) == 0 {
			return true
		}
		var tb, bb bytes.Buffer
		if WriteText(&tb, records) != nil || WriteBinary(&bb, records) != nil {
			return false
		}
		fromText, err1 := ReadText(&tb)
		fromBin, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil &&
			reflect.DeepEqual(fromText, records) && reflect.DeepEqual(fromBin, records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	input := "# header\n\n1000 5 a b tcp 1 0 0\n  \n"
	got, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Src != "a" {
		t.Fatalf("parsed %+v", got)
	}
}

func TestReadTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"1000 5 a b tcp 1 0",         // missing field
		"x 5 a b tcp 1 0 0",          // bad start
		"1000 x a b tcp 1 0 0",       // bad duration
		"1000 5 a b nope 1 0 0",      // bad proto
		"1000 5 a b tcp x 0 0",       // bad sessions
		"1000 5 a b tcp 0 0 0",       // zero sessions
		"1000 5 a a tcp 1 0 0",       // self flow
		"1000 5 a b tcp 1 -1 0",      // negative bytes
		"1000 -5 a b tcp 1 0 0",      // negative duration
		"1000 5 a b tcp 1 0 0 extra", // extra field
	}
	for _, line := range cases {
		if _, err := ReadText(strings.NewReader(line)); err == nil {
			t.Fatalf("accepted %q", line)
		}
	}
}

func TestReadTextReportsLineNumber(t *testing.T) {
	input := "# ok\n1000 5 a b tcp 1 0 0\nbroken line\n"
	_, err := ReadText(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error = %v", err)
	}
}

func TestWriteTextRejectsInvalidRecord(t *testing.T) {
	var buf bytes.Buffer
	err := WriteText(&buf, []Record{{Src: "", Dst: "b", Start: time.Now(), Sessions: 1}})
	if err == nil {
		t.Fatal("invalid record written")
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadBinaryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Any strict prefix must fail with io.ErrUnexpectedEOF — the magic
	// cut short, or a record —, never succeed silently with fewer
	// records... except at exact record boundaries, where the stream is
	// indistinguishable from a shorter valid file.
	boundaries := map[int]bool{len(full): true}
	// Find record boundaries by re-encoding prefixes.
	for n := 1; n <= len(sampleRecords()); n++ {
		var b bytes.Buffer
		if err := WriteBinary(&b, sampleRecords()[:n]); err != nil {
			t.Fatal(err)
		}
		boundaries[b.Len()] = true
	}
	boundaries[len(BinaryMagic)] = true // the header alone: no records
	for cut := 0; cut < len(full); cut++ {
		if boundaries[cut] {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestProtoParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Proto
	}{{"tcp", TCP}, {"TCP", TCP}, {"udp", UDP}, {"47", Proto(47)}} {
		got, err := ParseProto(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseProto(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, in := range []string{"", "icmpx", "300", "-1",
		"6abc", "6 7", " 17", "17 ", "0x11", "+6", "proto(", "proto(6", "proto()", "proto(300)", "proto( 6)"} {
		if _, err := ParseProto(in); err == nil {
			t.Fatalf("ParseProto(%q) accepted", in)
		}
	}
	if TCP.String() != "tcp" || UDP.String() != "udp" || Proto(47).String() != "proto(47)" {
		t.Fatal("Proto.String wrong")
	}
	for n := 0; n < 256; n++ {
		if got, err := ParseProto(Proto(n).String()); err != nil || got != Proto(n) {
			t.Fatalf("ParseProto(%q) = %v, %v; want %d", Proto(n).String(), got, err, n)
		}
	}
	// So the text codec round-trips every protocol, not only tcp and udp.
	records := sampleRecords()
	records[1].Proto = Proto(47)
	var buf bytes.Buffer
	if err := WriteText(&buf, records); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadText(&buf); err != nil || !reflect.DeepEqual(got, records) {
		t.Fatalf("text round trip of proto 47: %+v, %v", got, err)
	}
}

// TestSessionsFitTheBinaryCodec: the binary codec (and so the WAL)
// stores sessions in 32 bits, so Validate refuses a count above that
// instead of letting it be logged truncated — as 0, a frame replay
// refuses, or wrapped to a different count.
func TestSessionsFitTheBinaryCodec(t *testing.T) {
	rec := sampleRecords()[0]
	rec.Sessions = math.MaxUint32
	b, err := AppendRecordBinary(nil, &rec)
	if err != nil {
		t.Fatalf("sessions %d refused: %v", rec.Sessions, err)
	}
	got, n, err := DecodeRecordBinary(b)
	if err != nil || n != len(b) || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip at the boundary: %+v, %d, %v", got, n, err)
	}
	for _, s := range []int{math.MaxUint32 + 1, math.MaxUint32 + 2} {
		rec.Sessions = s
		if err := rec.Validate(); err == nil {
			t.Fatalf("sessions %d validated", s)
		}
		if out, err := AppendRecordBinary(nil, &rec); err == nil || len(out) != 0 {
			t.Fatalf("sessions %d encoded: %d bytes, %v", s, len(out), err)
		}
	}
}

// TestCountRecordsBinary: the count over length prefixes finds, at every
// cut of a run of records, the records the cut holds whole.
func TestCountRecordsBinary(t *testing.T) {
	var b []byte
	var ends []int
	for _, r := range sampleRecords() {
		var err error
		if b, err = AppendRecordBinary(b, &r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(b))
	}
	for cut := 0; cut <= len(b); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		if got := CountRecordsBinary(b[:cut]); got != want {
			t.Fatalf("%d of %d bytes: counted %d records, want %d", cut, len(b), got, want)
		}
	}
}
