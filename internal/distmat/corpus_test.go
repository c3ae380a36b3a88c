package distmat

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

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

// TestEngineOnFuzzCorpus replays internal/core's committed fuzz corpus
// — the adversarial signature pairs the kernel fuzzer has accumulated,
// which it checks through the pointwise kernel — through the engine's
// posting scatter: every signature of every entry in one set, Rows and
// Querier.Neighbors bit-identical to the naive Dist for all six kinds.
func TestEngineOnFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "core", "testdata", "fuzz", "FuzzDistKernels")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus unavailable: %v", err)
	}
	var sources []graph.NodeID
	var sigs []core.Signature
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		araw, braw, kraw, ok := parseCorpusFile(t, filepath.Join(dir, e.Name()))
		if !ok {
			continue
		}
		k := 1 + int(kraw)%40
		for _, raw := range [][]byte{araw, braw} {
			sources = append(sources, graph.NodeID(len(sources)))
			sigs = append(sigs, corpusSig(raw, k))
		}
	}
	if len(sigs) == 0 {
		t.Fatal("no corpus entries parsed — decoder out of sync with internal/core fuzz format")
	}
	set, err := core.NewSignatureSet("corpus", 0, sources, sigs)
	if err != nil {
		t.Fatal(err)
	}
	view := NewSetView(set)
	for _, d := range core.ExtendedDistances() {
		want := naiveMatrix(d, set, set)
		eng, _ := NewEngineOn(view, view, d, 1)
		got := engineMatrix(t, eng, set.Len(), set.Len())
		querier, _ := NewQuerier(d)
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s: cell (%d,%d): engine %v, naive %v", d.Name(), i, j, got[i][j], want[i][j])
				}
			}
			querier.Neighbors(view, sigs[i], 0.999, func(j int, dist float64) {
				if math.Float64bits(dist) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s: Neighbors(%d) at %d: %v, naive %v", d.Name(), i, j, dist, want[i][j])
				}
			})
		}
		querier.Release()
	}
	t.Logf("checked %d corpus signatures", len(sigs))
}
