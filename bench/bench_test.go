package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omniwindow"
	"omniwindow/internal/packet"
	"omniwindow/internal/trace"
)

// miniature shrinks a workload to ~5 000 flows over 6 sub-windows, keeping
// the persistent flows' packets per sub-window, so that a test can drive
// it end to end in milliseconds.
func miniature(w workload) workload {
	const subWindows = 6
	w.Flows, w.HeavyFlows = 5000, 16
	w.HeavyPackets = w.HeavyPackets * subWindows / w.SubWindows
	w.SubWindows = subWindows
	return w
}

func miniatures() []workload {
	var out []workload
	for _, w := range workloads {
		out = append(out, miniature(w))
	}
	return out
}

func TestTraceComesFromTheSeedAlone(t *testing.T) {
	w := miniature(workloads[1])
	a, b, c := w.generate(7), w.generate(7), w.generate(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different traces")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same trace")
	}
	for i, r := range compact(a) {
		if !reflect.DeepEqual(r.packet(), a[i]) {
			t.Fatalf("packet %d does not survive compaction: %+v vs %+v", i, r.packet(), a[i])
		}
	}
}

func TestTruthMatchesCountTruth(t *testing.T) {
	w := miniature(workloads[0])
	pkts := w.generate(3)
	tr := newTruth(w, pkts)
	for _, win := range w.expectedWindows() {
		want := map[packet.FlowKey]bool{}
		from, to := int64(win.Start)*int64(subWindow), int64(win.End+1)*int64(subWindow)
		for k, n := range trace.CountTruth(pkts, from, to) {
			if n >= w.Threshold {
				want[k] = true
			}
		}
		got := tr.heavy(win)
		if len(got) != len(want) || len(got) < w.HeavyFlows {
			t.Fatalf("window %v: %d heavy flows, want %d (at least the %d persistent ones)", win, len(got), len(want), w.HeavyFlows)
		}
		for _, k := range got {
			if !want[k] {
				t.Fatalf("window %v: %v is not heavy", win, k)
			}
		}
	}
}

func TestCheckWindowsCountsFailures(t *testing.T) {
	w := miniature(workloads[1])
	pkts := w.generate(2)
	tr := newTruth(w, pkts)
	expected := w.expectedWindows()
	good := func() []omniwindow.WindowResult {
		var out []omniwindow.WindowResult
		for _, win := range expected {
			out = append(out, omniwindow.WindowResult{Start: win.Start, End: win.End, Detected: tr.heavy(win)})
		}
		return out
	}
	if v := checkWindows(w, tr, good()); v.Failed != 0 {
		t.Fatalf("exact results failed: %v", v.Errs)
	}
	base := checkWindows(w, tr, good()).Digest

	missing := good()[:len(expected)-1]
	flagged := good()
	flagged[0].Incomplete, flagged[0].MissingAFRs = true, 3
	blind := good()
	blind[0].Detected = blind[0].Detected[1:]
	extra := append(good(), omniwindow.WindowResult{Start: 9, End: 13})
	shifted := good()
	shifted[0].Start++
	for name, results := range map[string][]omniwindow.WindowResult{
		"missing": missing, "flagged": flagged, "blind": blind, "extra": extra, "shifted": shifted,
	} {
		v := checkWindows(w, tr, results)
		if v.Failed != 1 || len(v.Errs) != 1 {
			t.Errorf("%s: failed = %d (%v), want 1", name, v.Failed, v.Errs)
		}
		if name != "flagged" && v.Digest == base {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(decl.Command, want) || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("command %v with run_seconds %d, want %v and 1..60", decl.Command, decl.RunSeconds, want)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared as %+v, table has %q: %q", i, d, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end declared as\n%+v\ntable has\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer declared as\n%+v\ntable has\n%+v", decl.PerLayer, perLayer)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
}

// The command line on miniature workloads: all four deployment variants in
// one process, end to end with the correctness check on, traced so that the
// ladder and every per-layer metric are exercised too; then the result
// lines, the report and the span file it wrote.
func TestCommandLineOnMiniatures(t *testing.T) {
	saved, steps, touches := workloads, referenceHashSteps, referenceTouches
	workloads, referenceHashSteps, referenceTouches = miniatures(), steps>>8, touches>>8
	defer func() { workloads, referenceHashSteps, referenceTouches = saved, steps, touches }()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Fatalf("unknown workload: exit %d, stderr %q", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	report := filepath.Join(dir, "report.json")
	args := []string{"--workload", "all", "--seed", "4", "--seconds", "0", "--trace", "1", "--out", report}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}

	// The last line is the result line, with exactly the contract's keys.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4", len(keys))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || !line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("traced result line: %v, %+v", err, line)
	}
	if !strings.Contains(stdout.String(), "GOMAXPROCS=") || !strings.Contains(stdout.String(), "real files") {
		t.Error("output carries no env block")
	}

	var rep struct {
		Env     env         `json:"env"`
		Results []runResult `json:"results"`
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.Seed != 4 || rep.Env.GoVersion == "" || rep.Env.TmpFS == "" || len(rep.Results) != len(workloads) {
		t.Fatalf("report env %+v with %d results", rep.Env, len(rep.Results))
	}
	var spans map[string][]span
	data, err = os.ReadFile(filepath.Join(dir, "report.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}

	digests := map[string]string{}
	for i, w := range workloads {
		r := rep.Results[i]
		if r.Workload != w.Name || !r.Correct || r.Failed != 0 {
			t.Fatalf("%s: reported as %s, correct=%v: %v", w.Name, r.Workload, r.Correct, r.Errors)
		}
		windows := len(w.expectedWindows())
		replays := 1 + minTimedReplays + 2
		if _, ok := w.reference(); ok {
			replays++
		}
		if r.Attempted != windows*replays || r.TimedReplays != minTimedReplays {
			t.Errorf("%s: attempted %d windows in %d timed replays, want %d in %d",
				w.Name, r.Attempted, r.TimedReplays, windows*replays, minTimedReplays)
		}
		if want := minTimedReplays * (w.SubWindows - w.Plan.Size + 1); r.CloseSamples != want {
			t.Errorf("%s: %d boundaries in the close times, want %d", w.Name, r.CloseSamples, want)
		}
		if r.Slowdown <= 0 {
			t.Errorf("%s: machine slowdown %v, want positive", w.Name, r.Slowdown)
		}
		for _, d := range endToEnd {
			if r.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, d.Name, r.EndToEnd[d.Name])
			}
		}
		if len(r.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(r.EndToEnd), len(endToEnd))
		}
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		if len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(r.PerLayer), len(perLayer))
		}
		for _, name := range []string{"afr.update_ns_per_pkt", "afr.enumerate_ns_per_afr", "controller.finish_ms",
			"rdma.send_ns_per_afr", "durable.checkpoint_bytes", "durable.fs_ops_per_boundary", "controller.table_size"} {
			if r.PerLayer[name] <= 0 {
				t.Errorf("%s: %s = %v, want positive", w.Name, name, r.PerLayer[name])
			}
		}
		if len(spans[w.Name]) == 0 {
			t.Errorf("%s: the span file holds no spans", w.Name)
		}
		for _, s := range spans[w.Name] {
			if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
				t.Errorf("%s: span %s [%d,%d] self %d", w.Name, s.Name, s.Start, s.End, s.Self)
			}
		}
		digests[w.Name] = r.Digest
	}
	if digests["flow_churn"] != digests["flow_churn_rdma"] || digests["flow_churn"] != digests["flow_churn_durable"] {
		t.Errorf("flow_churn digests differ across transport and durability: %v", digests)
	}
	if digests["flow_churn"] == digests["pkt_heavy"] {
		t.Error("pkt_heavy and flow_churn share a digest")
	}
}
