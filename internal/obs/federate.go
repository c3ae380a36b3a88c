package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metrics federation: parse each node's Prometheus text exposition,
// relabel every sample with the node's identity, and render one
// cluster-level exposition that additionally carries exact aggregates —
// counters summed, histograms merged bucket-wise (every node uses the
// same log-bucketed bounds, so cumulative bucket counts sum losslessly).
//
// The router serves the result at GET /metrics?federate=1.

// Sample is one parsed sample line. Name is the full sample name — for
// histograms that is the family name plus _bucket/_sum/_count. Labels
// is the rendered pair list inside the braces ("" when bare).
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Family is one parsed metric family in input order.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary or untyped
	Samples []Sample
}

// Label is one label pair, used both when parsing sample label blocks
// and when naming the identity labels a federated node injects.
type Label struct {
	Name  string
	Value string
}

// NodeExposition is one node's parsed exposition plus the identity
// labels (instance, role, shard, …) to stamp onto its samples. A label
// already present on a sample is never overridden — shard registries
// stamp their own role/shard const labels and those win.
type NodeExposition struct {
	Labels   []Label
	Families []Family
}

// ParseExposition parses the Prometheus text format as produced by
// Registry.WritePrometheus (and by WriteFederated). It is the one
// reader of exposition bytes in the module — the router runs it over
// what shards send during federation — so it refuses anything outside
// the grammar: comments other than # HELP and # TYPE, a TYPE that is
// unknown, repeated or follows its family's samples, sample and family
// names outside the metric-name grammar, label blocks that are not
// comma-separated name="value" pairs, and anything after the value but
// one integer timestamp.
//
// Histogram sample lines (name_bucket/name_sum/name_count) attach to
// their declared family; samples with no preceding TYPE declaration
// become untyped families of their own. Timestamps are dropped.
func ParseExposition(r io.Reader) ([]Family, error) {
	var (
		families []Family
		index    = make(map[string]int)
		typed    = make(map[string]bool)
	)
	family := func(name string) *Family {
		if i, ok := index[name]; ok {
			return &families[i]
		}
		index[name] = len(families)
		families = append(families, Family{Name: name, Type: "untyped"})
		return &families[len(families)-1]
	}
	// sampleFamily resolves which family a sample line belongs to:
	// exact name first, then the histogram/summary base name when the
	// sample carries one of the synthetic suffixes.
	sampleFamily := func(name string) *Family {
		if i, ok := index[name]; ok {
			return &families[i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, ok := strings.CutSuffix(name, suffix)
			if !ok {
				continue
			}
			if i, ok := index[base]; ok && (families[i].Type == "histogram" || families[i].Type == "summary") {
				return &families[i]
			}
		}
		return family(name)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || fields[0] != "#" || !validName(fields[2]) {
				return nil, fmt.Errorf("obs: line %d: bad comment %q", lineNo, line)
			}
			switch fields[1] {
			case "HELP":
				f := family(fields[2])
				f.Help = strings.TrimSpace(strings.TrimPrefix(line, "# HELP "+fields[2]))
			case "TYPE":
				f := family(fields[2])
				if len(fields) != 4 || !knownType(fields[3]) || typed[f.Name] || len(f.Samples) > 0 {
					return nil, fmt.Errorf("obs: line %d: bad TYPE line %q", lineNo, line)
				}
				f.Type = fields[3]
				typed[f.Name] = true
			default:
				return nil, fmt.Errorf("obs: line %d: bad comment %q", lineNo, line)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
		}
		f := sampleFamily(s.Name)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return families, nil
}

func knownType(t string) bool {
	switch t {
	case "counter", "gauge", "histogram", "summary", "untyped":
		return true
	}
	return false
}

// parseSample reads one sample line: `name{labels} value [timestamp]`,
// the label block optional.
func parseSample(line string) (Sample, error) {
	name, rest := line, ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !validName(name) {
		return Sample{}, fmt.Errorf("bad metric name %q", name)
	}
	s := Sample{Name: name}
	if strings.HasPrefix(rest, "{") {
		_, end, err := parseLabels(rest[1:])
		if err != nil {
			return Sample{}, fmt.Errorf("%v in %q", err, line)
		}
		if end+1 >= len(rest) {
			return Sample{}, fmt.Errorf("unclosed label block in %q", line)
		}
		s.Labels, rest = rest[1:end+1], rest[end+2:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return Sample{}, fmt.Errorf("want `value [timestamp]`, got %q", rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return Sample{}, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	s.Value = v
	return s, nil
}

// parseLabels reads comma-separated name="value" pairs from s up to a
// closing brace or the end of s, whichever comes first, and reports
// where it stopped. A backslash in a value escapes the byte after it;
// a trailing comma is allowed.
func parseLabels(s string) ([]Label, int, error) {
	var out []Label
	i := 0
	for i < len(s) && s[i] != '}' {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || !validName(s[i:i+eq]) {
			return nil, 0, fmt.Errorf("bad label name")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("unquoted value of label %q", name)
		}
		var val strings.Builder
		for i++; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated value of label %q", name)
		}
		i++ // past the closing quote
		out = append(out, Label{Name: name, Value: val.String()})
		switch {
		case i < len(s) && s[i] == ',':
			i++
		case i < len(s) && s[i] != '}':
			return nil, 0, fmt.Errorf("junk after label %q", name)
		}
	}
	return out, i, nil
}

// parseLabelPairs splits a sample's rendered label block (`a="x",b="y"`,
// no braces) into pairs.
func parseLabelPairs(block string) ([]Label, error) {
	pairs, end, err := parseLabels(block)
	if err == nil && end != len(block) {
		err = fmt.Errorf("brace inside label block %q", block)
	}
	return pairs, err
}

// Label reports the value of the sample's label name, "" when it has
// none.
func (s Sample) Label(name string) string {
	pairs, _ := parseLabelPairs(s.Labels)
	for _, p := range pairs {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

// Totals maps every counter and gauge family of one node's exposition
// to the sum of its samples: the value itself for a plain series, the
// total over label values for a vec. It is the parsed counterpart of
// Registry.Snapshot; the module renders these families as integers.
func Totals(fams []Family) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range fams {
		if f.Type != "counter" && f.Type != "gauge" {
			continue
		}
		var sum float64
		for _, s := range f.Samples {
			sum += s.Value
		}
		out[f.Name] = int64(sum)
	}
	return out
}

// Histogram folds every series of one node's histogram family into one
// snapshot: cumulative _bucket counts summed at each le bound across
// label sets, _sum added up. The series of a registry's histogram vec
// share their bounds and each observation lands in exactly one of
// them, so the fold is the histogram that saw every observation — its
// Quantile is the family-wide estimate. A non-histogram family folds
// to the zero snapshot.
func (f Family) Histogram() HistSnapshot {
	var s HistSnapshot
	if f.Type != "histogram" {
		return s
	}
	cum := make(map[float64]float64)
	for _, smp := range f.Samples {
		switch smp.Name {
		case f.Name + "_bucket":
			if le, err := strconv.ParseFloat(smp.Label("le"), 64); err == nil {
				cum[le] += smp.Value
			}
		case f.Name + "_sum":
			s.Sum += smp.Value
		}
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	for _, le := range les {
		// Clamped so a body whose buckets are not cumulative cannot
		// make a bucket's count negative.
		c := max(uint64(cum[le]), s.Count)
		if !math.IsInf(le, 1) {
			s.Bounds = append(s.Bounds, le)
		}
		s.Counts = append(s.Counts, c-s.Count)
		s.Count = c
	}
	return s
}

// identityLabel reports whether a label names node identity rather than
// a metric dimension. Identity labels are stripped when grouping
// samples for the cluster-level aggregates, so the same logical series
// on different nodes sums into one.
func identityLabel(name string) bool {
	switch name {
	case "instance", "role", "shard", "ring_epoch":
		return true
	}
	return false
}

func renderLabelPairs(pairs []Label) string {
	parts := make([]string, 0, len(pairs))
	for _, p := range pairs {
		parts = append(parts, fmt.Sprintf("%s=%q", p.Name, p.Value))
	}
	return strings.Join(parts, ",")
}

// hasLabelName reports whether the parsed pair list contains name.
func hasLabelName(pairs []Label, name string) bool {
	for _, p := range pairs {
		if p.Name == name {
			return true
		}
	}
	return false
}

// WriteFederated renders one cluster-level exposition from per-node
// expositions. Per family (first-seen HELP/TYPE win):
//
//   - every node's samples are re-emitted with the node's identity
//     labels injected (labels already present on the sample, such as a
//     shard registry's own role/shard const labels, are kept as-is);
//   - counter and histogram families additionally get aggregate series
//     labeled instance="cluster": samples are grouped by their
//     non-identity labels and summed. All nodes share the same
//     log-bucketed histogram bounds, so per-bucket cumulative counts
//     sum exactly — the merge is lossless, not an approximation.
//
// Gauges are point-in-time per-node facts; they federate with identity
// labels but are never summed. The output parses with ParseExposition;
// a sample whose label block does not is an error.
func WriteFederated(w io.Writer, nodes []NodeExposition) error {
	type nodeFamily struct {
		node   int
		family *Family
	}
	var (
		order  []string
		merged = make(map[string][]nodeFamily)
	)
	for n := range nodes {
		for i := range nodes[n].Families {
			f := &nodes[n].Families[i]
			if _, ok := merged[f.Name]; !ok {
				order = append(order, f.Name)
			}
			merged[f.Name] = append(merged[f.Name], nodeFamily{node: n, family: f})
		}
	}

	bw := bufio.NewWriter(w)
	for _, name := range order {
		parts := merged[name]
		help, typ := parts[0].family.Help, parts[0].family.Type
		for _, p := range parts[1:] {
			if help == "" {
				help = p.family.Help
			}
		}
		if help == "" {
			help = name
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)

		type group struct {
			name   string
			labels string // non-identity labels, rendered
			sum    float64
		}
		var (
			groups   []*group
			groupIdx = make(map[string]*group)
		)
		for _, p := range parts {
			identity := nodes[p.node].Labels
			for _, s := range p.family.Samples {
				pairs, err := parseLabelPairs(s.Labels)
				if err != nil {
					return fmt.Errorf("obs: federate: %s: %v", s.Name, err)
				}
				inject := make([]Label, 0, len(identity))
				for _, l := range identity {
					if !hasLabelName(pairs, l.Name) {
						inject = append(inject, l)
					}
				}
				labels := mergeLabels(renderLabelPairs(inject), s.Labels)
				if labels != "" {
					fmt.Fprintf(bw, "%s{%s} %s\n", s.Name, labels, formatFloat(s.Value))
				} else {
					fmt.Fprintf(bw, "%s %s\n", s.Name, formatFloat(s.Value))
				}
				if typ != "counter" && typ != "histogram" {
					continue
				}
				kept := pairs[:0:0]
				for _, pr := range pairs {
					if !identityLabel(pr.Name) {
						kept = append(kept, pr)
					}
				}
				key := s.Name + "\x00" + renderLabelPairs(kept)
				g, ok := groupIdx[key]
				if !ok {
					g = &group{name: s.Name, labels: renderLabelPairs(kept)}
					groupIdx[key] = g
					groups = append(groups, g)
				}
				g.sum += s.Value
			}
		}
		for _, g := range groups {
			labels := mergeLabels(`instance="cluster"`, g.labels)
			fmt.Fprintf(bw, "%s{%s} %s\n", g.name, labels, formatFloat(g.sum))
		}
	}
	return bw.Flush()
}
