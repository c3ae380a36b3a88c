package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of a text exposition body.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE comments followed
// by sample lines, histograms as cumulative _bucket{le=...} series plus
// _sum and _count. Families appear in registration order; a vec's
// label values in creation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	konst := r.constLabelString()
	for _, m := range r.families() {
		fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			writeSample(bw, m.name, konst, m.counter.Value())
		case kindGauge:
			writeSample(bw, m.name, konst, m.gauge.Value())
		case kindGaugeFunc:
			var v int64
			if m.gaugeFn != nil {
				v = m.gaugeFn()
			}
			writeSample(bw, m.name, konst, v)
		case kindHistogram:
			writeHistogram(bw, m.name, konst, m.hist.Snapshot())
		case kindHistogramVec:
			writeVec(m.vec, konst, func(label string, h *Histogram) { writeHistogram(bw, m.name, label, h.Snapshot()) })
		case kindCounterVec:
			writeVec(m.cvec, konst, func(label string, c *Counter) { writeSample(bw, m.name, label, c.Value()) })
		case kindGaugeVec:
			writeVec(m.gvec, konst, func(label string, g *Gauge) { writeSample(bw, m.name, label, g.Value()) })
		}
	}
	return bw.Flush()
}

// writeVec hands write each child of v, in creation order, with its
// rendered label pairs: the const labels, then the partition label.
func writeVec[T any](v *Vec[T], konst string, write func(label string, kid *T)) {
	for _, value := range v.values() {
		write(mergeLabels(konst, fmt.Sprintf("%s=%q", v.label, value)), v.With(value))
	}
}

// writeSample emits one scalar sample, with const labels when present.
func writeSample(w io.Writer, name, label string, v int64) {
	if label != "" {
		fmt.Fprintf(w, "%s{%s} %d\n", name, label, v)
		return
	}
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// mergeLabels joins rendered label-pair lists, skipping empty parts.
func mergeLabels(parts ...string) string {
	out := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if out != "" {
			out += ","
		}
		out += p
	}
	return out
}

// writeHistogram emits one histogram series. label is either "" or a
// rendered `name="value"` pair to merge with the le label.
func writeHistogram(w io.Writer, name, label string, s HistSnapshot) {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		if label != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, label, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	suffix := ""
	if label != "" {
		suffix = "{" + label + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
