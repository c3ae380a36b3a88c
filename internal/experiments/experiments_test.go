package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"graphsig/internal/sketch"
)

// testEnv loads a small-scale environment once; the full-scale datasets
// are exercised by the benchmarks and cmd/sigbench.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		ds, err := LoadScaled(42, 0.25)
		if err != nil {
			envErr = err
			return
		}
		envVal = NewEnv(ds, 42)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestLoadScaledValidation(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if _, err := LoadScaled(1, s); err == nil {
			t.Fatalf("scale %g accepted", s)
		}
	}
}

func inUnit(t *testing.T, name string, v float64) {
	t.Helper()
	if v < 0 || v > 1 {
		t.Fatalf("%s = %g outside [0,1]", name, v)
	}
}

func TestFigure1(t *testing.T) {
	e := testEnv(t)
	rows, err := Figure1(e)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 5 schemes × 4 distances.
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "persistence", r.Ellipse.Persistence.Mean)
		inUnit(t, "uniqueness", r.Ellipse.Uniqueness.Mean)
	}
	if out := FormatFigure1(rows); !strings.Contains(out, "network-flows") {
		t.Fatal("format missing dataset")
	}
}

func TestFigure2(t *testing.T) {
	e := testEnv(t)
	series, err := Figure2(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		inUnit(t, "AUC", s.AUC)
		if len(s.Curve.FPR) != rocGridPoints {
			t.Fatalf("curve points = %d", len(s.Curve.FPR))
		}
		// Curves are monotone non-decreasing.
		for i := 1; i < len(s.Curve.TPR); i++ {
			if s.Curve.TPR[i] < s.Curve.TPR[i-1]-1e-9 {
				t.Fatalf("%s: TPR decreases at %d", s.Scheme, i)
			}
		}
	}
	if out := FormatFigure2(series); !strings.Contains(out, "AUC") {
		t.Fatal("format wrong")
	}
}

func TestFigure3(t *testing.T) {
	e := testEnv(t)
	for _, fn := range []func(*Env) (*AUCMatrix, error){Figure3a, Figure3b} {
		m, err := fn(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Schemes) != 5 || len(m.Distances) != 4 {
			t.Fatalf("matrix %dx%d", len(m.Distances), len(m.Schemes))
		}
		for di := range m.Distances {
			for si := range m.Schemes {
				inUnit(t, "AUC", m.Values[di][si])
				// Better than coin-flip on every cell even at ¼ scale.
				if m.Values[di][si] < 0.5 {
					t.Fatalf("%s/%s AUC %g below chance",
						m.Distances[di], m.Schemes[si], m.Values[di][si])
				}
			}
		}
		if _, ok := m.Get("shel", "tt"); !ok {
			t.Fatal("Get failed")
		}
		if _, ok := m.Get("nope", "tt"); ok {
			t.Fatal("Get invented a cell")
		}
		if !strings.Contains(m.Format(), "shel") {
			t.Fatal("format wrong")
		}
	}
}

func TestFigure4(t *testing.T) {
	e := testEnv(t)
	rows, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "AUC", r.AUC)
		inUnit(t, "robustness", r.MeanRobustness)
	}
	// Heavier perturbation cannot increase mean robustness.
	for _, scheme := range []string{"tt", "ut", "rwr3@0.1"} {
		var light, heavy float64
		for _, r := range rows {
			if r.Scheme == scheme && r.Alpha == 0.1 {
				light = r.MeanRobustness
			}
			if r.Scheme == scheme && r.Alpha == 0.4 {
				heavy = r.MeanRobustness
			}
		}
		if heavy > light {
			t.Fatalf("%s: robustness rose with perturbation (%g > %g)", scheme, heavy, light)
		}
	}
	if !strings.Contains(FormatFigure4(rows), "alpha") {
		t.Fatal("format wrong")
	}
}

func TestFigure5(t *testing.T) {
	e := testEnv(t)
	rows, err := Figure5(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "AUC", r.AUC)
		if r.AUC < 0.5 {
			t.Fatalf("%s/%s multiusage AUC %g below chance", r.Scheme, r.Distance, r.AUC)
		}
	}
	if !strings.Contains(FormatFigure5(rows), "tt") {
		t.Fatal("format wrong")
	}
}

func TestFigure6(t *testing.T) {
	e := testEnv(t)
	rows, err := Figure6(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure6Fractions)*3*len(Figure6Ells) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "accuracy", r.Accuracy)
	}
	if !strings.Contains(FormatFigure6(rows), "f=0.02") {
		t.Fatal("format wrong")
	}
}

func TestTables(t *testing.T) {
	for _, tb := range []*PropertyTable{TableI(), TableII(), TableIII()} {
		out := tb.Format()
		if len(tb.Rows) == 0 || len(tb.Cells) != len(tb.Rows) {
			t.Fatalf("table %q malformed", tb.Title)
		}
		if !strings.Contains(out, tb.Rows[0]) {
			t.Fatal("format missing rows")
		}
	}
	e := testEnv(t)
	t4, err := TableIVMeasured(e)
	if err != nil {
		t.Fatal(err)
	}
	levels := map[string]bool{}
	for _, row := range t4.Cells {
		if len(row) != 3 {
			t.Fatalf("row width %d", len(row))
		}
		for _, cell := range row {
			levels[strings.Fields(cell)[0]] = true
		}
	}
	for _, l := range []string{"high", "medium", "low"} {
		if !levels[l] {
			t.Fatalf("level %q never assigned", l)
		}
	}
}

func TestAblations(t *testing.T) {
	e := testEnv(t)
	streaming, err := StreamingAblation(e, sketch.StreamConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// TT, then UT at each in-degree sketch size, each over the sources
	// that stayed sparse and those that went dense.
	if len(streaming) != 2*(1+len(streamingFMBitmaps)) {
		t.Fatalf("streaming rows = %d: %+v", len(streaming), streaming)
	}
	for i, r := range streaming {
		inUnit(t, "meanDist", r.MeanDist)
		inUnit(t, "recall", r.ExactTopkRecall)
		inUnit(t, "AUC", r.AUC)
		if r.Dense != (i%2 == 1) || r.Sources == 0 {
			t.Fatalf("row %d: %+v", i, r)
		}
		// A sparse source's TT signature is the exact one.
		if r.Scheme == "tt" && !r.Dense && (r.MeanDist != 0 || r.ExactTopkRecall != 1) {
			t.Fatalf("sparse TT differs from exact TT: %+v", r)
		}
	}
	lshRow, err := LSHAblation(e, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	inUnit(t, "recall@10", lshRow.Recall10)
	if lshRow.MeanCandidates <= 0 || lshRow.MeanCandidates > float64(lshRow.Population) {
		t.Fatalf("candidates = %g of %d", lshRow.MeanCandidates, lshRow.Population)
	}

	decay, err := DecayAblation(e, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(decay) != 2 {
		t.Fatal("decay rows wrong")
	}
	// History decay smooths windows, so persistence must not fall.
	if decay[1].Persistence < decay[0].Persistence {
		t.Fatalf("decay lowered persistence: %g < %g", decay[1].Persistence, decay[0].Persistence)
	}

	direction, err := DirectionAblation(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(direction) != 2 || direction[0].Scheme == direction[1].Scheme {
		t.Fatal("direction rows wrong")
	}

	utScaling, err := UTScalingAblation(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(utScaling) != 2 {
		t.Fatal("ut scaling rows wrong")
	}

	ks, err := KSweepAblation(e, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatal("k sweep rows wrong")
	}
	out := FormatAblations(streaming, lshRow, decay, direction, utScaling, ks)
	for _, want := range []string{"semi-streaming", "LSH", "decay", "directionality", "scaling", "length k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation format missing %q", want)
		}
	}
}

func TestAnomalyDetection(t *testing.T) {
	e := testEnv(t)
	rows, err := AnomalyDetection(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AnomalyFractions)*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "precision", r.Precision)
		inUnit(t, "recall", r.Recall)
		inUnit(t, "F1", r.F1)
	}
	// The framework's prediction: persistence-bearing schemes (TT, RWR)
	// must beat UT at anomaly detection on every fraction.
	byKey := map[string]map[float64]float64{}
	for _, r := range rows {
		if byKey[r.Scheme] == nil {
			byKey[r.Scheme] = map[float64]float64{}
		}
		byKey[r.Scheme][r.F] = r.F1
	}
	for _, f := range AnomalyFractions {
		if byKey["ut"][f] > byKey["tt"][f] || byKey["ut"][f] > byKey["rwr3@0.1"][f] {
			t.Fatalf("UT outperformed persistent schemes at f=%g", f)
		}
	}
	if !strings.Contains(FormatAnomaly(rows), "X4") {
		t.Fatal("format wrong")
	}
}

func TestSchemeSignificance(t *testing.T) {
	e := testEnv(t)
	rows, err := SchemeSignificance(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Diff.Queries == 0 {
			t.Fatalf("%s vs %s: no queries", r.SchemeA, r.SchemeB)
		}
		if r.Diff.Lo > r.Diff.Hi {
			t.Fatalf("inverted interval: %s", r.Diff)
		}
		if r.Diff.Mean < r.Diff.Lo-0.05 || r.Diff.Mean > r.Diff.Hi+0.05 {
			t.Fatalf("mean far outside interval: %s", r.Diff)
		}
	}
	if !strings.Contains(FormatSignificance(rows), "bootstrap") {
		t.Fatal("format wrong")
	}
}

func TestBlendAblation(t *testing.T) {
	e := testEnv(t)
	rows, err := BlendAblation(e, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "selfAUC", r.SelfAUC)
		inUnit(t, "multiusageAUC", r.MultiusageAUC)
	}
	// α=1 is pure TT, α=0 pure UT: the endpoints must reproduce the
	// single-scheme ordering on flows (TT above UT for self-retrieval).
	if rows[1].SelfAUC <= rows[0].SelfAUC {
		t.Fatalf("pure TT (%.4f) not above pure UT (%.4f)", rows[1].SelfAUC, rows[0].SelfAUC)
	}
	if !strings.Contains(FormatBlend(rows), "alpha") {
		t.Fatal("format wrong")
	}
}

func TestDeAnonymization(t *testing.T) {
	e := testEnv(t)
	rows, err := DeAnonymization(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "top1", r.Top1)
		inUnit(t, "greedy", r.Greedy)
		// Signature-based matching must beat random assignment (1/|V|)
		// by a wide margin for the persistent schemes.
		if r.Scheme != "ut" && r.Top1 < 0.2 {
			t.Fatalf("%s top-1 accuracy %g implausibly low", r.Scheme, r.Top1)
		}
	}
	if !strings.Contains(FormatDeanon(rows), "X5") {
		t.Fatal("format wrong")
	}
}

func TestTelephoneRetrieval(t *testing.T) {
	rows, err := TelephoneRetrieval(9, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		inUnit(t, "AUC", r.AUC)
		if r.AUC < 0.8 {
			t.Fatalf("%s call-graph AUC %g implausibly low", r.Scheme, r.AUC)
		}
	}
	if !strings.Contains(FormatPhone(rows), "X6") {
		t.Fatal("format wrong")
	}
}

func TestPruneAblation(t *testing.T) {
	e := testEnv(t)
	rows, err := PruneAblation(e, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Stricter pruning keeps fewer edges.
	if rows[1].EdgeFrac > rows[0].EdgeFrac {
		t.Fatal("pruning kept more edges at a higher threshold")
	}
	if rows[0].EdgeFrac != 1 {
		t.Fatalf("minW=1 should keep all integer-weight edges, kept %g", rows[0].EdgeFrac)
	}
	for _, r := range rows {
		inUnit(t, "AUC", r.AUC)
	}
	if !strings.Contains(FormatPrune(rows), "prun") {
		t.Fatal("format wrong")
	}
}

func TestHopConvergence(t *testing.T) {
	e := testEnv(t)
	rows, diameter, err := HopConvergence(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(HopConvergenceHops) {
		t.Fatalf("rows = %d", len(rows))
	}
	if diameter <= 0 {
		t.Fatalf("diameter = %d", diameter)
	}
	for _, r := range rows {
		inUnit(t, "AUC", r.AUC)
		inUnit(t, "delta", r.DeltaPrev)
	}
	// Successive-h signature movement must shrink as the walk
	// converges: the last step is smaller than the first measured one.
	if rows[len(rows)-1].DeltaPrev > rows[1].DeltaPrev {
		t.Fatalf("hop deltas not shrinking: %+v", rows)
	}
	if !strings.Contains(FormatHopConvergence(rows, diameter), "diameter") {
		t.Fatal("format wrong")
	}
}

func TestPersistenceHorizon(t *testing.T) {
	e := testEnv(t)
	rows, err := PersistenceHorizon(e)
	if err != nil {
		t.Fatal(err)
	}
	maxGap := len(e.windows(FlowData)) - 1
	if len(rows) != 3*maxGap {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[string][]HorizonRow{}
	for _, r := range rows {
		inUnit(t, "persistence", r.Persistence)
		inUnit(t, "AUC", r.AUC)
		if r.Pairs <= 0 {
			t.Fatalf("no pairs at gap %d", r.Gap)
		}
		byScheme[r.Scheme] = append(byScheme[r.Scheme], r)
	}
	// Persistence must not grow with the gap for the persistent
	// schemes (allowing small sampling noise).
	for _, scheme := range []string{"tt", "rwr3@0.1"} {
		rs := byScheme[scheme]
		if rs[len(rs)-1].Persistence > rs[0].Persistence+0.05 {
			t.Fatalf("%s persistence grows with gap: %+v", scheme, rs)
		}
	}
	if !strings.Contains(FormatHorizon(rows), "horizon") {
		t.Fatal("format wrong")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	e := testEnv(t)
	var buf bytes.Buffer
	if err := RunAll(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV",
		"Figure 1", "Figure 2", "Figure 3(a)", "Figure 3(b)",
		"Figure 4", "Figure 5", "Figure 6",
		"Extension X1", "Extension X2", "Extension X3", "Extension X4",
		"Extension X5", "Extension X6",
		"blend", "bootstrap", "prun", "hop convergence", "horizon",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
