package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

// baseWindows is the tile period: the generator's cost is per host and
// window (about 0.4 ms each on the sandbox), so a long stream is made by
// repeating a short one shifted in time, not by generating it.
const baseWindows = 4

// dataset is the serving stages' input: baseWindows generated windows
// that tile into a stream of any length. Everything in it is a pure
// function of the seed and the host count.
type dataset struct {
	gcfg datagen.EnterpriseConfig
	// base holds the generated records window by window; winEnd[w] is
	// the index one past window w's last record.
	base   []netflow.Record
	winEnd []int
	// labels lists the local hosts in first-seen order: the sources a
	// query can name.
	labels []string
}

// enterpriseConfig sizes the generator the way sigserverd -replay does.
func enterpriseConfig(seed int64, hosts, windows int) datagen.EnterpriseConfig {
	g := datagen.DefaultEnterpriseConfig(seed)
	g.LocalHosts = hosts
	g.ExternalHosts = max(8*hosts, 200)
	g.Windows = windows
	g.MultiusageIndividuals = min(g.MultiusageIndividuals, hosts/15)
	return g
}

func generateDataset(seed int64, hosts int) (*dataset, error) {
	gcfg := enterpriseConfig(seed, hosts, baseWindows)
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		return nil, err
	}
	d := &dataset{gcfg: gcfg, base: data.Records, winEnd: make([]int, baseWindows)}
	seen := make(map[string]bool, hosts)
	cur := 0
	for i, r := range d.base {
		w := d.windowOf(r)
		if w < cur || w >= baseWindows {
			return nil, fmt.Errorf("dataset: record %d is not window-ordered (window %d after %d)", i, w, cur)
		}
		cur = w
		d.winEnd[w] = i + 1
		if !seen[r.Src] {
			seen[r.Src] = true
			d.labels = append(d.labels, r.Src)
		}
	}
	for w, end := range d.winEnd {
		if end == 0 {
			return nil, fmt.Errorf("dataset: window %d is empty", w)
		}
	}
	return d, nil
}

// windowLen reports how many records stream window w holds.
func (d *dataset) windowLen(w int) int {
	b := w % baseWindows
	if b == 0 {
		return d.winEnd[0]
	}
	return d.winEnd[b] - d.winEnd[b-1]
}

// stream returns windows [first, first+n) of the tiled stream: window w
// is base window w mod baseWindows moved w div baseWindows tile periods
// later.
func (d *dataset) stream(first, n int) []netflow.Record {
	c := cursor{d: d, window: first}
	return c.take(d.windowsLen(first, n))
}

// cursor reads the tiled stream in order, any number of records at a
// time, without end.
type cursor struct {
	d      *dataset
	window int // stream window the next record comes from
	offset int // records of that window already read
}

// take returns the next n records.
func (c *cursor) take(n int) []netflow.Record {
	out := make([]netflow.Record, 0, n)
	for len(out) < n {
		b := c.window % baseWindows
		lo := c.offset
		if b > 0 {
			lo += c.d.winEnd[b-1]
		}
		hi := min(c.d.winEnd[b], lo+n-len(out))
		shift := time.Duration(c.window/baseWindows*baseWindows) * c.d.gcfg.WindowLength
		for _, r := range c.d.base[lo:hi] {
			r.Start = r.Start.Add(shift)
			out = append(out, r)
		}
		if c.offset += hi - lo; c.offset == c.d.windowLen(c.window) {
			c.window, c.offset = c.window+1, 0
		}
	}
	return out
}

// windowsLen is how many records the n windows from first hold.
func (d *dataset) windowsLen(first, n int) int {
	total := 0
	for w := first; w < first+n; w++ {
		total += d.windowLen(w)
	}
	return total
}

// windowOf is the stream window a record falls in.
func (d *dataset) windowOf(r netflow.Record) int {
	return int(r.Start.Sub(d.gcfg.Origin) / d.gcfg.WindowLength)
}

// streamConfig is sigserverd's default pipeline: TT, k=10, TCP only,
// the 10. prefix local, sketch 4096x5 with 256 candidates.
func (d *dataset) streamConfig() stream.Config {
	return stream.Config{
		WindowSize: d.gcfg.WindowLength,
		Origin:     d.gcfg.Origin,
		Classify:   datagen.LocalClassifier,
		TCPOnly:    true,
		K:          10,
		Scheme:     "tt",
		Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1},
	}
}

// queryLabels draws n query labels. The phase name salts the seed so
// phases ask about different hosts but every run of one seed asks the
// same questions in the same order.
func (d *dataset) queryLabels(seed int64, phase string, n int) []string {
	h := fnv.New64a()
	h.Write([]byte(phase))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	out := make([]string, n)
	for i := range out {
		out[i] = d.labels[rng.Intn(len(d.labels))]
	}
	return out
}

// chunk cuts records into batches of size n; the last may be shorter.
func chunk(records []netflow.Record, n int) [][]netflow.Record {
	out := make([][]netflow.Record, 0, (len(records)+n-1)/n)
	for i := 0; i < len(records); i += n {
		out = append(out, records[i:min(i+n, len(records))])
	}
	return out
}

// streamHash fingerprints a record stream: the determinism test pins it.
func streamHash(records []netflow.Record) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range records {
		h.Write([]byte(r.Src))
		h.Write([]byte{0})
		h.Write([]byte(r.Dst))
		h.Write([]byte{0})
		for _, v := range []int64{r.Start.UnixNano(), int64(r.Duration), int64(r.Sessions), r.Bytes, r.Packets, int64(r.Proto)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
