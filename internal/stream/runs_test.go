package stream

import (
	"fmt"
	"reflect"
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/sketch"
)

// TestCloseRunsChangeNothing closes the same window in 1, 2 and 4 runs
// of extraction, under both schemes, over a sparse window (datagen's:
// every source the log of what it did) and a dense one (zipfWindow: the
// head outgrows the candidate bound and closes through its sketch). A
// signature is a function of its own source's state, so every k must
// give the set k = 1 does, to the bit.
func TestCloseRunsChangeNothing(t *testing.T) {
	gcfg := datagen.DefaultEnterpriseConfig(5)
	gcfg.LocalHosts = 300
	gcfg.ExternalHosts = 2400
	gcfg.Windows = 1
	data, err := datagen.GenerateEnterprise(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		records []netflow.Record
	}{
		{"sparse", data.Records},
		{"dense", zipfWindow(gcfg)},
	} {
		for _, scheme := range []string{"tt", "ut"} {
			t.Run(in.name+"/"+scheme, func(t *testing.T) {
				var want *core.SignatureSet
				for _, k := range []int{1, 2, 4} {
					p, err := NewPipeline(Config{
						WindowSize: gcfg.WindowLength,
						Origin:     gcfg.Origin,
						Classify:   datagen.LocalClassifier,
						TCPOnly:    true,
						K:          10,
						Scheme:     scheme,
						Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1},
					}, nil)
					if err != nil {
						t.Fatal(err)
					}
					p.runs = k
					for _, r := range in.records {
						if _, err := p.Ingest(r); err != nil {
							t.Fatal(err)
						}
					}
					dense := p.current.DenseSources()
					set, err := p.Flush()
					if err != nil {
						t.Fatal(err)
					}
					if set.Len() != gcfg.LocalHosts || (in.name == "dense") != (dense > 0) {
						t.Fatalf("k=%d: %d sources, %d of them dense", k, set.Len(), dense)
					}
					if k == 1 {
						want = set
						continue
					}
					if !reflect.DeepEqual(set, want) {
						t.Errorf("k=%d: the set differs from k=1's%s", k, firstDiff(set, want))
					}
				}
			})
		}
	}
}

// firstDiff names the first source whose signature differs.
func firstDiff(got, want *core.SignatureSet) string {
	for i := range want.Sources {
		if i >= len(got.Sources) || got.Sources[i] != want.Sources[i] || !reflect.DeepEqual(got.Sigs[i], want.Sigs[i]) {
			return fmt.Sprintf(" first at source %d", i)
		}
	}
	return ""
}
