package omniwindow

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"omniwindow/internal/obs"
	"omniwindow/internal/window"
)

// scrapeMetrics fetches and parses a /metrics endpoint into name→value,
// validating the exposition is well-formed enough for a Prometheus
// scraper (one value per line, parseable floats).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return parseMetrics(t, resp.Body)
}

// parseMetrics parses a Prometheus text exposition into name→value.
func parseMetrics(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	values := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	return values
}

// TestDebugEndpointReflectsRun runs a deployment with the observability
// endpoint enabled, scrapes /metrics, and reconciles the scraped counters
// against the run's Stats — the endpoint is consumed and validated, not
// just served.
func TestDebugEndpointReflectsRun(t *testing.T) {
	cfg := freqConfig(window.Tumbling(2), 5, false)
	cfg.DebugAddr = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.CloseDebug()

	pkts := burstTrace(map[int64][]int{
		100 * ms: {1, 2, 3},
		300 * ms: {1, 2},
	}, 20)
	d.RunFor(pkts, 500*ms)
	stats := d.Stats()
	if stats.AFRs == 0 || len(d.Results()) == 0 {
		t.Fatalf("run produced no data: %+v", stats)
	}

	values := scrapeMetrics(t, d.DebugURL())
	checks := map[string]int{
		"omniwindow_switch_packets_total":     stats.Packets,
		"omniwindow_cr_afrs_total":            stats.AFRs,
		"omniwindow_controller_windows_total": len(d.Results()),
		"omniwindow_cr_collect_seconds_count": stats.SubWindows,
	}
	for name, want := range checks {
		if got := values[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	// The controller admitted at least every collected AFR (spikes and
	// spills ride other counters).
	if got := values["omniwindow_controller_afrs_total"]; got < float64(stats.AFRs) {
		t.Errorf("controller afrs %v < collected %d", got, stats.AFRs)
	}
	// The C&R latency histogram carries a usable quantile.
	if values["omniwindow_cr_collect_seconds_sum"] <= 0 {
		t.Error("C&R histogram sum is zero")
	}

	// /debug/windows shows the full lifecycle: announced → collected →
	// finished → window emitted.
	resp, err := http.Get(d.DebugURL() + "/debug/windows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Total  uint64 `json:"total_events"`
		Events []struct {
			Stage     string `json:"stage"`
			SubWindow uint64 `json:"sub_window"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/windows: %v", err)
	}
	seen := make(map[string]bool)
	for _, e := range dump.Events {
		seen[e.Stage] = true
	}
	for _, stage := range []string{"announced", "collected", "finished", "window_emitted"} {
		if !seen[stage] {
			t.Errorf("trace ring missing stage %q (saw %v)", stage, seen)
		}
	}

	// pprof rides along on the same endpoint.
	pr, err := http.Get(d.DebugURL() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", pr.StatusCode)
	}

	if err := d.CloseDebug(); err != nil {
		t.Fatalf("CloseDebug: %v", err)
	}
	if err := d.CloseDebug(); err != nil {
		t.Fatalf("second CloseDebug: %v", err)
	}
}

// TestObsRegistryWithoutEndpoint: Config.Obs alone instruments the
// deployment into a caller-owned registry, no HTTP.
func TestObsRegistryWithoutEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := freqConfig(window.Tumbling(2), 5, false)
	cfg.Obs = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.DebugURL() != "" {
		t.Fatal("no DebugAddr configured but an endpoint is running")
	}
	d.RunFor(burstTrace(map[int64][]int{100 * ms: {1, 2}}, 10), 300*ms)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "omniwindow_switch_packets_total 20") {
		t.Fatalf("packet counter missing from the supplied registry:\n%s", text)
	}
}

// TestUninstrumentedDeploymentHasNoObs: without Obs/DebugAddr the
// deployment carries nil handles end to end and the accessors are safe.
func TestUninstrumentedDeploymentHasNoObs(t *testing.T) {
	d, err := New(freqConfig(window.Tumbling(2), 5, false))
	if err != nil {
		t.Fatal(err)
	}
	if d.reg != nil || d.DebugURL() != "" {
		t.Fatal("uninstrumented deployment exposes observability state")
	}
	d.RunFor(burstTrace(map[int64][]int{100 * ms: {1}}, 5), 300*ms)
	if err := d.CloseDebug(); err != nil {
		t.Fatalf("CloseDebug on uninstrumented deployment: %v", err)
	}
}
