// Command bench is the repository's benchmark: it replays seeded traces
// through the exported omniwindow.Deployment API and reports, per workload,
// the end-to-end metrics and (traced) the per-layer metrics that
// BENCHMARK.json declares. See README.md beside this file.
//
//	go run ./bench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench -selfcheck
//
// The last line written to standard output for a workload is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is where the benchmark keeps everything it writes, relative to
// the directory it is run from: checkpoint directories here, and the build
// cache and binary when started through run.sh.
const buildDir = ".bench_build"

// env describes the machine and settings a report was measured with, so
// that a baseline can be trusted or discarded on sight.
type env struct {
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NProc           int     `json:"nproc"`
	CPU             string  `json:"cpu"`
	GoVersion       string  `json:"go_version"`
	GitHead         string  `json:"git_head"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	MinTimedReplays int     `json:"min_timed_replays"`
	// TmpDir and TmpFS say where flow_churn_durable's checkpoint
	// directories live: real files on that filesystem.
	TmpDir string `json:"tmp_dir"`
	TmpFS  string `json:"tmp_fs"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

// fsType returns the filesystem type of the mount that holds dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract with whatever drives the benchmark: the last
// line of standard output, with exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) line(traced bool) resultLine {
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.PerLayer
	}
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return l
}

func (r *runResult) print(out io.Writer, traced bool) error {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(out, "\n## %s  seed=%d  packets=%d  timed_replays=%d  boundaries_timed=%d  windows=%d/%d %s  digest=%.16s\n",
		r.Workload, r.Seed, r.Packets, r.TimedReplays, r.CloseSamples, r.Attempted-r.Failed, r.Attempted, status, r.Digest)
	fmt.Fprintf(out, "  machine_slowdown %.3f: the reference kernel took %.1f ms over the run, nominal is %d ms; the end-to-end times below are divided by it\n",
		r.Slowdown, r.Slowdown*millis(referenceNominal), referenceNominal.Milliseconds())
	for _, e := range r.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.Name, r.EndToEnd[d.Name], d.Unit)
	}
	if traced {
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
	}
	line, err := json.Marshal(r.line(traced))
	if err != nil {
		return fmt.Errorf("%s: result line: %w", r.Workload, err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeReport writes the full report to path and, when spans were recorded,
// the spans, each with its self time, to its sibling file.
func writeReport(path string, e env, results []*runResult) error {
	report := struct {
		Env     env          `json:"env"`
		Results []*runResult `json:"results"`
	}{e, results}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	spans := map[string][]span{}
	for _, r := range results {
		if len(r.spans) > 0 {
			setSelfTimes(r.spans)
			spans[r.Workload] = r.spans
		}
	}
	if len(spans) == 0 {
		return nil
	}
	data, err = json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(strings.TrimSuffix(path, ".json")+".spans.json", append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated trace, the only input to it")
	secs := fs.Float64("seconds", 10, "how long the timed replays of one workload go on")
	trace := fs.Int("trace", 0, "1 adds the traced replay and the layer ladder and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full report (and FILE's sibling .spans.json) here")
	selfcheck := fs.Bool("selfcheck", false, "run every workload ten times twice over in fresh processes and hold the spreads and medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *selfcheck {
		if err := selfCheck(stdout, *seed, *secs); err != nil {
			return fail(err)
		}
		return 0
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	traced := *trace != 0

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	tmpRoot := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	if err := initReference(); err != nil {
		return fail(err)
	}
	e := env{
		GOMAXPROCS: procs, NProc: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
		GitHead: gitHead(), Seed: *seed, Seconds: *secs, MinTimedReplays: minTimedReplays,
		TmpDir: tmpRoot, TmpFS: fsType(tmpRoot),
	}
	fmt.Fprintf(stdout, "# env: GOMAXPROCS=%d nproc=%d cpu=%q go=%s git=%s seed=%d seconds=%g min_timed_replays=%d\n",
		e.GOMAXPROCS, e.NProc, e.CPU, e.GoVersion, e.GitHead, e.Seed, e.Seconds, e.MinTimedReplays)
	fmt.Fprintf(stdout, "# env: flow_churn_durable checkpoints to real files under %s (%s)\n", e.TmpDir, e.TmpFS)

	var results []*runResult
	correct := true
	for _, w := range selected {
		r, err := runWorkload(w, *seed, time.Duration(*secs*float64(time.Second)), traced, tmpRoot)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		results = append(results, r)
		correct = correct && r.Correct
		if err := r.print(stdout, traced); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := writeReport(*out, e, results); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return fail(fmt.Errorf("correctness check failed"))
	}
	return 0
}
