// Command sigbench regenerates the paper's evaluation on the synthetic
// datasets: every table (I–IV), every figure (1–6) and the extension
// ablations, printed as text tables.
//
// Usage:
//
//	sigbench [-seed N] [-scale F] [-experiment NAME] [-json PATH]
//	         [-cpuprofile PATH] [-memprofile PATH]
//
// With no -experiment it runs the full suite (-all behaviour). NAME may
// be one of: fig1 fig2 fig3a fig3b fig4 fig5 fig6 tables ablations
// pairwise. -json writes the experiment's machine-readable report (only
// the pairwise experiment emits one); -cpuprofile/-memprofile write
// pprof profiles covering the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"graphsig/internal/experiments"
	"graphsig/internal/sketch"
)

func main() {
	seed := flag.Int64("seed", 42, "root random seed")
	scale := flag.Float64("scale", 1.0, "dataset scale factor in (0,1]")
	name := flag.String("experiment", "", "run a single experiment (fig1..fig6, tables, ablations, pairwise); empty = all")
	jsonPath := flag.String("json", "", "write the experiment's machine-readable report to this path (pairwise only)")
	baseline := flag.String("baseline", "", "pairwise: diff engine pairs/sec against this committed report, warn on >20% regressions")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()

	popts := pairwiseOpts{Baseline: *baseline}
	if err := profiledRun(*seed, *scale, *name, *jsonPath, popts, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "sigbench:", err)
		os.Exit(1)
	}
}

// profiledRun wraps run with optional pprof capture so the profiles are
// flushed even when the experiment fails.
func profiledRun(seed int64, scale float64, name, jsonPath string, popts pairwiseOpts, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(seed, scale, name, jsonPath, popts); err != nil {
		return err
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func run(seed int64, scale float64, name, jsonPath string, popts pairwiseOpts) error {
	ds, err := experiments.LoadScaled(seed, scale)
	if err != nil {
		return err
	}
	e := experiments.NewEnv(ds, seed)
	out := os.Stdout

	switch name {
	case "":
		return experiments.RunAll(out, e)
	case "tables":
		for _, t := range []*experiments.PropertyTable{
			experiments.TableI(), experiments.TableII(), experiments.TableIII(),
		} {
			fmt.Fprintln(out, t.Format())
		}
		t4, err := experiments.TableIVMeasured(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t4.Format())
		return nil
	case "fig1":
		rows, err := experiments.Figure1(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFigure1(rows))
		return nil
	case "fig2":
		series, err := experiments.Figure2(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFigure2(series))
		return nil
	case "fig3a":
		m, err := experiments.Figure3a(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, m.Format())
		return nil
	case "fig3b":
		m, err := experiments.Figure3b(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, m.Format())
		return nil
	case "fig4":
		rows, err := experiments.Figure4(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFigure4(rows))
		return nil
	case "fig5":
		rows, err := experiments.Figure5(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFigure5(rows))
		return nil
	case "fig6":
		rows, err := experiments.Figure6(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFigure6(rows))
		return nil
	case "significance":
		rows, err := experiments.SchemeSignificance(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatSignificance(rows))
		return nil
	case "blend":
		rows, err := experiments.BlendAblation(e, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatBlend(rows))
		return nil
	case "horizon":
		rows, err := experiments.PersistenceHorizon(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatHorizon(rows))
		return nil
	case "hops":
		rows, diameter, err := experiments.HopConvergence(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatHopConvergence(rows, diameter))
		return nil
	case "deanon":
		rows, err := experiments.DeAnonymization(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatDeanon(rows))
		return nil
	case "phone":
		rows, err := experiments.TelephoneRetrieval(seed, scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatPhone(rows))
		return nil
	case "prune":
		rows, err := experiments.PruneAblation(e, []float64{1, 2, 3, 5})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatPrune(rows))
		return nil
	case "anomaly":
		rows, err := experiments.AnomalyDetection(e)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatAnomaly(rows))
		return nil
	case "pairwise":
		return runPairwise(e, seed, scale, popts, out, jsonPath)
	case "ablations":
		streaming, err := experiments.StreamingAblation(e, sketch.StreamConfig{Seed: uint64(seed)})
		if err != nil {
			return err
		}
		lshRow, err := experiments.LSHAblation(e, 16, 2)
		if err != nil {
			return err
		}
		decay, err := experiments.DecayAblation(e, []float64{0, 0.25, 0.5, 0.75})
		if err != nil {
			return err
		}
		direction, err := experiments.DirectionAblation(e)
		if err != nil {
			return err
		}
		utScaling, err := experiments.UTScalingAblation(e)
		if err != nil {
			return err
		}
		ks, err := experiments.KSweepAblation(e, []int{5, 10, 20, 40})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatAblations(streaming, lshRow, decay, direction, utScaling, ks))
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
