package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestReportFigures holds the committed reproduction
// (experiments_report.txt, `sigbench` at seed 42, full scale) to the
// code: the Figure 2, 3(a), 3(b) and 4 blocks — every number in them a
// self-retrieval AUC or a curve drawn from the same queries — must come
// out of this tree as they stand in the file.
func TestReportFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-scale datasets")
	}
	raw, err := os.ReadFile("../../experiments_report.txt")
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)
	ds, err := Load(42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv(ds, 42)
	f2, err := Figure2(e)
	if err != nil {
		t.Fatal(err)
	}
	f3a, err := Figure3a(e)
	if err != nil {
		t.Fatal(err)
	}
	f3b, err := Figure3b(e)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Figure4(e)
	if err != nil {
		t.Fatal(err)
	}
	for name, block := range map[string]string{
		"Figure 2":    FormatFigure2(f2),
		"Figure 3(a)": "Figure 3(a): " + f3a.Format(),
		"Figure 3(b)": "Figure 3(b): " + f3b.Format(),
		"Figure 4":    FormatFigure4(f4),
	} {
		// RunAll prints each block with Fprintln and a blank line after.
		if !strings.Contains(report, "\n"+block+"\n") {
			t.Errorf("%s differs from experiments_report.txt; this tree prints\n%s", name, block)
		}
	}
}
