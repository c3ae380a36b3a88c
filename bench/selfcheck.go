package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfcheck is the noise check: for each workload it runs this binary
// o.selfcheck times with seeds 1..n, twice over, and compares the two
// sets the way the acceptance check does. A metric fails when the second
// set's median is worse than the first's by more than its bound, or when
// the quartile spread of either set exceeds the bound; a spread over a
// third of the bound is flagged, since that is the margin to aim for.
func selfcheck(o options, names []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, name := range names {
		// The two sets take turns run by run (1, 2, 1, 2, ...), so that a
		// drift of the host between the start and the end of the check
		// falls on both alike and does not pass for a difference.
		sets := [2]map[string][]float64{{}, {}}
		for seed := 1; seed <= o.selfcheck; seed++ {
			for set := range sets {
				metrics, err := childRun(exe, name, seed, o.seconds)
				if err != nil {
					return fmt.Errorf("workload %s set %d seed %d: %w", name, set+1, seed, err)
				}
				for m, v := range metrics {
					sets[set][m] = append(sets[set][m], v)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s set %d seed %d done\n", name, set+1, seed)
			}
		}
		fmt.Printf("workload %s: two sets of %d runs, seeds 1..%d, %d s each\n", name, o.selfcheck, o.selfcheck, o.seconds)
		fmt.Printf("  %-34s %14s %14s %8s %8s %8s %6s\n", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			m1, m2 := samples(a).median(), samples(b).median()
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = (m1 - m2) / m1
			}
			s1, s2 := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			switch {
			case worse > d.Bound || (d.Name != "setup_s" && max(s1, s2) > d.Bound):
				verdict = "FAIL"
				failed = true
			case d.Name != "setup_s" && max(s1, s2) > d.Bound/3:
				verdict = "loose"
			}
			fmt.Printf("  %-34s %14.4f %14.4f %7.1f%% %7.1f%% %7.1f%% %5.0f%% %s\n", d.Name, m1, m2, 100*worse, 100*s1, 100*s2, 100*d.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("the two sets disagree by more than a bound")
	}
	return nil
}

// childRun runs one untraced benchmark run in a child process and
// returns the metrics of its result line.
func childRun(exe, workload string, seed, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d output checks failed", res.Failed)
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}
