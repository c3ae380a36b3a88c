package distmat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/lsh"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randSigSpan builds a random Validate-clean signature of up to maxLen
// entries over [base, base+span), empty roughly 1 time in 8.
func randSigSpan(rng *rand.Rand, maxLen, base, span int) core.Signature {
	if rng.Intn(8) == 0 {
		return core.Signature{}
	}
	ln := 1 + rng.Intn(maxLen)
	weights := map[graph.NodeID]float64{}
	for len(weights) < ln {
		weights[graph.NodeID(base+rng.Intn(span))] = float64(1+rng.Intn(16)) / 4
	}
	return core.FromWeights(weights, ln)
}

// boundHolds asserts the prefilter's no-false-rejection contract for
// one signature pair across the distances that are prefiltered (the
// three match-list kinds): the bound never exceeds the exact distance
// by more than the slack, so a candidate skipped at any threshold
// provably lies outside it.
func boundHolds(t *testing.T, a, b core.Signature) {
	t.Helper()
	flat := core.NewFlatSigs([]core.Signature{a, b})
	ma, mb := lsh.NewMask(a.Nodes), lsh.NewMask(b.Nodes)
	bounded := 0
	for _, d := range core.ExtendedDistances() {
		kind, ok := core.KernelKindOf(d)
		if !ok {
			t.Fatalf("%s: no kernel kind", d.Name())
		}
		if modeFor(kind) != modeMatches {
			continue // scatter kinds are never prefiltered: no bound exists
		}
		bounded++
		exact := d.Dist(a, b)
		bound := distLowerBound(kind, flat, 0, flat, 1, ma, mb)
		if bound > exact+prefilterSlack {
			t.Fatalf("%s: bound %v exceeds exact %v (+slack) for %v vs %v", d.Name(), bound, exact, a, b)
		}
		// Both orientations: the bound must be safe regardless of side.
		bound = distLowerBound(kind, flat, 1, flat, 0, mb, ma)
		if bound > exact+prefilterSlack {
			t.Fatalf("%s reversed: bound %v exceeds exact %v for %v vs %v", d.Name(), bound, exact, b, a)
		}
	}
	if bounded != 3 {
		t.Fatalf("checked %d prefiltered kinds, want 3", bounded)
	}
}

// corpusSig mirrors internal/core's fuzzSig decoder: 3 bytes per entry
// — a node id and a 2-byte weight mantissa — through FromWeights.
func corpusSig(data []byte, k int) core.Signature {
	weights := make(map[graph.NodeID]float64)
	for len(data) >= 3 {
		node := graph.NodeID(data[0])
		w := float64(binary.LittleEndian.Uint16(data[1:3]))
		weights[node] += 0.25 + w/16
		data = data[3:]
	}
	return core.FromWeights(weights, k)
}

// parseCorpusFile decodes one go-fuzz corpus entry of FuzzDistKernels
// ([]byte, []byte, byte).
func parseCorpusFile(t *testing.T, path string) (araw, braw []byte, kraw uint8, ok bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read corpus %s: %v", path, err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, nil, 0, false
	}
	var bytesArgs [][]byte
	var byteArg uint8
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "[]byte("):
			q := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(q)
			if err != nil {
				return nil, nil, 0, false
			}
			bytesArgs = append(bytesArgs, []byte(s))
		case strings.HasPrefix(line, "byte("):
			q := strings.TrimSuffix(strings.TrimPrefix(line, "byte("), ")")
			s, err := strconv.Unquote(q)
			if err != nil || len(s) != 1 {
				return nil, nil, 0, false
			}
			byteArg = s[0]
		case strings.HasPrefix(line, "uint8("):
			q := strings.TrimSuffix(strings.TrimPrefix(line, "uint8("), ")")
			v, err := strconv.ParseUint(q, 10, 8)
			if err != nil {
				return nil, nil, 0, false
			}
			byteArg = uint8(v)
		}
	}
	if len(bytesArgs) != 2 {
		return nil, nil, 0, false
	}
	return bytesArgs[0], bytesArgs[1], byteArg, true
}

// TestPrefilterBoundOnFuzzCorpus replays internal/core's committed fuzz
// corpus — the adversarial signature pairs the kernel fuzzer has
// accumulated — through the no-false-rejection property.
func TestPrefilterBoundOnFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "core", "testdata", "fuzz", "FuzzDistKernels")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus unavailable: %v", err)
	}
	parsed := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		araw, braw, kraw, ok := parseCorpusFile(t, filepath.Join(dir, e.Name()))
		if !ok {
			continue
		}
		k := 1 + int(kraw)%40
		boundHolds(t, corpusSig(araw, k), corpusSig(braw, k))
		parsed++
	}
	if parsed == 0 {
		t.Fatal("no corpus entries parsed — decoder out of sync with internal/core fuzz format")
	}
	t.Logf("checked %d corpus pairs", parsed)
}

// TestPrefilterBoundRandom checks the bound on random signature pairs
// spanning overlapping, disjoint and empty shapes.
func TestPrefilterBoundRandom(t *testing.T) {
	rng := newRng(321)
	for trial := 0; trial < 3000; trial++ {
		a := randSigSpan(rng, 14, rng.Intn(40), 60)
		b := randSigSpan(rng, 14, rng.Intn(40), 60)
		boundHolds(t, a, b)
	}
	boundHolds(t, core.Signature{}, core.Signature{})
	boundHolds(t, core.Signature{}, randSigSpan(rng, 8, 0, 20))
}

// TestPairsWithinPrefilterIdentical: for every registered distance and
// a grid of thresholds, PairsWithin with the prefilter on must return
// exactly the pairs it returns with the prefilter off, which in turn
// must match a naive O(n²) scan — same pairs, bit-identical distances.
func TestPairsWithinPrefilterIdentical(t *testing.T) {
	set := randSet(t, 77, 120, 10, 160)
	for _, d := range core.ExtendedDistances() {
		for _, maxDist := range []float64{0.0, 0.25, 0.5, 0.8, 0.97} {
			on, ok := NewEngine(set, set, d, 2)
			if !ok {
				t.Fatalf("%s: no engine", d.Name())
			}
			off, _ := NewEngine(set, set, d, 2)
			off.SetPrefilter(false)
			got := on.PairsWithin(maxDist)
			want := off.PairsWithin(maxDist)
			if len(got) != len(want) {
				t.Fatalf("%s maxDist=%v: prefilter on %d pairs, off %d",
					d.Name(), maxDist, len(got), len(want))
			}
			for i := range got {
				if got[i].I != want[i].I || got[i].J != want[i].J ||
					math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s maxDist=%v: pair %d mismatch %+v vs %+v",
						d.Name(), maxDist, i, got[i], want[i])
				}
			}
			// Against the naive scan.
			var naive []Pair
			for i := 0; i < set.Len(); i++ {
				for j := i + 1; j < set.Len(); j++ {
					a, b := set.Sigs[i], set.Sigs[j]
					if len(a.Nodes) == 0 || len(b.Nodes) == 0 {
						continue
					}
					if dist := d.Dist(a, b); dist <= maxDist {
						naive = append(naive, Pair{I: i, J: j, Dist: dist})
					}
				}
			}
			if len(naive) != len(got) {
				t.Fatalf("%s maxDist=%v: engine %d pairs, naive %d",
					d.Name(), maxDist, len(got), len(naive))
			}
			for i := range naive {
				if naive[i] != got[i] {
					t.Fatalf("%s maxDist=%v: naive pair %d %+v != engine %+v",
						d.Name(), maxDist, i, naive[i], got[i])
				}
			}
		}
	}
}

// TestQuerierPrefilterIdentical: Neighbors with the prefilter on and
// off must visit the same columns with bit-identical distances, across
// all six distances and several thresholds.
func TestQuerierPrefilterIdentical(t *testing.T) {
	set := randSet(t, 99, 90, 10, 120)
	view := NewSetView(set)
	rng := newRng(5)
	type hit struct {
		j    int
		bits uint64
	}
	collect := func(q *Querier, sig core.Signature, maxDist float64) []hit {
		var hits []hit
		q.Neighbors(view, sig, maxDist, func(j int, dist float64) {
			hits = append(hits, hit{j, math.Float64bits(dist)})
		})
		return hits
	}
	for _, d := range core.ExtendedDistances() {
		on, _ := NewQuerier(d)
		off, _ := NewQuerier(d)
		off.SetPrefilter(false)
		for trial := 0; trial < 40; trial++ {
			sig := randSigSpan(rng, 12, rng.Intn(40), 100)
			for _, maxDist := range []float64{0.2, 0.6, 0.95} {
				got := collect(on, sig, maxDist)
				want := collect(off, sig, maxDist)
				if len(got) != len(want) {
					t.Fatalf("%s maxDist=%v: prefilter on visited %d, off %d", d.Name(), maxDist, len(got), len(want))
				}
				// Candidate-path visit order is unspecified; compare as sets.
				seen := map[hit]int{}
				for _, h := range want {
					seen[h]++
				}
				for _, h := range got {
					if seen[h] == 0 {
						t.Fatalf("%s maxDist=%v: prefilter-on visit %+v missing from prefilter-off", d.Name(), maxDist, h)
					}
					seen[h]--
				}
			}
		}
		on.Release()
		off.Release()
	}
}
