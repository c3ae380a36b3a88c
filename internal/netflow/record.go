// Package netflow implements the flow-record substrate: a NetFlow-style
// record type summarizing one aggregated communication (the form in which
// the paper's enterprise data arrives), text and binary codecs, and a
// windowing aggregator that turns a stream of records into the
// per-interval communication graphs of the paper's framework.
package netflow

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Record summarizes one flow: traffic from Src to Dst observed at Start,
// carrying Sessions TCP sessions (the paper's edge-weight unit), Bytes
// and Packets. Only Src, Dst, Start and Sessions participate in graph
// construction; the remaining fields exist because real NetFlow exports
// carry them and downstream users filter on them.
type Record struct {
	Src      string
	Dst      string
	Start    time.Time
	Duration time.Duration
	Sessions int
	Bytes    int64
	Packets  int64
	Proto    Proto
}

// Proto is the transport protocol of a flow.
type Proto uint8

// Transport protocols used by the enterprise dataset. The paper's study
// restricts itself to TCP.
const (
	TCP Proto = 6
	UDP Proto = 17
)

// String renders the protocol name.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// ParseProto parses "tcp"/"udp", a decimal protocol number, or the
// "proto(N)" form String writes, so ParseProto(p.String()) == p for
// every p.
func ParseProto(s string) (Proto, error) {
	switch s {
	case "tcp", "TCP":
		return TCP, nil
	case "udp", "UDP":
		return UDP, nil
	}
	digits := s
	if strings.HasPrefix(s, "proto(") && strings.HasSuffix(s, ")") {
		digits = s[len("proto(") : len(s)-1]
	}
	n, err := strconv.ParseUint(digits, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("netflow: invalid protocol %q", s)
	}
	return Proto(n), nil
}

// Validate reports whether the record is structurally sound.
func (r *Record) Validate() error {
	if r.Src == "" {
		return fmt.Errorf("netflow: record missing source")
	}
	if r.Dst == "" {
		return fmt.Errorf("netflow: record missing destination")
	}
	if r.Src == r.Dst {
		return fmt.Errorf("netflow: record %s->%s is a self-flow", r.Src, r.Dst)
	}
	if r.Sessions <= 0 {
		return fmt.Errorf("netflow: record %s->%s has non-positive sessions %d", r.Src, r.Dst, r.Sessions)
	}
	// The binary codec, and with it the WAL, stores sessions in 32 bits.
	if int64(r.Sessions) > math.MaxUint32 {
		return fmt.Errorf("netflow: record %s->%s has sessions %d above %d", r.Src, r.Dst, r.Sessions, uint32(math.MaxUint32))
	}
	if r.Start.IsZero() {
		return fmt.Errorf("netflow: record %s->%s has zero start time", r.Src, r.Dst)
	}
	if r.Duration < 0 {
		return fmt.Errorf("netflow: record %s->%s has negative duration", r.Src, r.Dst)
	}
	if r.Bytes < 0 || r.Packets < 0 {
		return fmt.Errorf("netflow: record %s->%s has negative counters", r.Src, r.Dst)
	}
	return nil
}
