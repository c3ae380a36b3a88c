package netflow

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadBinary throws arbitrary bytes at the binary codec. ReadBinary
// must never panic or over-allocate, and anything it accepts must
// survive a write/read round trip unchanged.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	err := WriteBinary(&valid, []Record{
		{
			Src: "alpha", Dst: "beta",
			Start:    time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC),
			Duration: 90 * time.Second,
			Proto:    TCP, Sessions: 4, Bytes: 512, Packets: 13,
		},
		{
			Src: "beta", Dst: "gamma",
			Start: time.Date(2026, 3, 2, 10, 1, 0, 0, time.UTC),
			Proto: UDP, Sessions: 1, Bytes: 64, Packets: 1,
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // torn mid-record
	f.Add([]byte("NFB1"))                       // header only
	f.Add([]byte("NFB2junk"))                   // bad magic
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, records); err != nil {
			t.Fatalf("re-encoding accepted records failed: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(records))
		}
		for i := range records {
			if !again[i].Start.Equal(records[i].Start) {
				t.Fatalf("record %d start changed: %v != %v", i, again[i].Start, records[i].Start)
			}
			a, b := again[i], records[i]
			a.Start, b.Start = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("record %d changed across round trip: %+v != %+v", i, a, b)
			}
		}
	})
}

// FuzzDecodeRecord throws arbitrary bytes at the per-record decoder the
// WAL and the stream form share. It must never panic, never report
// having read past the bytes it was given, and never depend on bytes
// after the n it reports; anything it accepts must re-encode, through
// AppendRecordBinary, to exactly the bytes it consumed.
func FuzzDecodeRecord(f *testing.F) {
	valid, err := AppendRecordBinary(nil, &Record{
		Src: "alpha", Dst: "beta",
		Start:    time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC),
		Duration: 90 * time.Second,
		Proto:    TCP, Sessions: 4, Bytes: 512, Packets: 13,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // cut short
	f.Add(append(append([]byte{}, valid...), 7, 7)) // bytes after the record
	f.Add([]byte{0, 0, 0, 0})                       // empty labels
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecordBinary(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected input reported %d bytes consumed", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		again, err := AppendRecordBinary(nil, &rec)
		if err != nil {
			t.Fatalf("re-encoding an accepted record failed: %v", err)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed:\n%x\n%x", n, again, data[:n])
		}
		// The same record from the consumed bytes alone: nothing past n
		// was read.
		alone, m, err := DecodeRecordBinary(data[:n:n])
		if err != nil || m != n || alone != rec {
			t.Fatalf("decoding the consumed bytes alone: %+v, %d, %v; with the rest: %+v, %d", alone, m, err, rec, n)
		}
	})
}
