package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runOnce runs one workload in a fresh process of this same binary and
// returns its result line.
func runOnce(workload string, seed int64, seconds float64) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !line.Correct {
		return line, fmt.Errorf("%s seed %d: outputs were not correct", workload, seed)
	}
	return line, nil
}

// worsening is how far b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selfcheckRuns is the number of runs in a set, as the acceptance rule has
// it.
const selfcheckRuns = 10

// selfCheck applies the benchmark's own acceptance rule to the code as it
// stands: two sets of runs per workload, each run in a fresh process with
// its own seed. Within a set, the quartile spread of every end-to-end
// metric but setup_s must stay within the metric's bound; between the
// sets, no median may be worse than the first set's by more than the
// bound.
func selfCheck(out io.Writer, seed int64, seconds float64) error {
	failures := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				line, err := runOnce(w.Name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n## %s  %d runs per set, seeds %d..%d\n", w.Name, selfcheckRuns, seed, seed+selfcheckRuns-1)
		fmt.Fprintf(out, "  %-22s %14s %14s %9s %9s %9s %7s\n", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			gap := worsening(d, median(a), median(b))
			verdict := ""
			if d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound {
				verdict = "  SPREAD OVER BOUND"
				failures++
			}
			if gap > d.Bound {
				verdict += "  MEDIANS APART"
				failures++
			}
			fmt.Fprintf(out, "  %-22s %14.6g %14.6g %8.2f%% %8.2f%% %+8.2f%% %6.0f%%%s\n",
				d.Name, median(a), median(b), 100*spreadA, 100*spreadB, 100*gap, 100*d.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", failures)
	}
	return nil
}
