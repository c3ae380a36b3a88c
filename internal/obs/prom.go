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
			m.vec.mu.RLock()
			values := append([]string(nil), m.vec.order...)
			m.vec.mu.RUnlock()
			for _, value := range values {
				label := mergeLabels(konst, fmt.Sprintf("%s=%q", m.vec.label, value))
				writeHistogram(bw, m.name, label, m.vec.With(value).Snapshot())
			}
		case kindCounterVec:
			m.cvec.mu.RLock()
			values := append([]string(nil), m.cvec.order...)
			m.cvec.mu.RUnlock()
			for _, value := range values {
				label := mergeLabels(konst, fmt.Sprintf("%s=%q", m.cvec.label, value))
				fmt.Fprintf(bw, "%s{%s} %d\n", m.name, label, m.cvec.With(value).Value())
			}
		case kindGaugeVec:
			m.gvec.mu.RLock()
			values := append([]string(nil), m.gvec.order...)
			m.gvec.mu.RUnlock()
			for _, value := range values {
				label := mergeLabels(konst, fmt.Sprintf("%s=%q", m.gvec.label, value))
				fmt.Fprintf(bw, "%s{%s} %d\n", m.name, label, m.gvec.With(value).Value())
			}
		}
	}
	return bw.Flush()
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
