package omniwindow

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
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

// TestObsRegistryOutlivesDeployment: two deployments built one after the
// other on one registry — a restart — read as one. The scrape-time
// counter families continue from the first deployment's counts instead of
// freezing at them, and the registry lets the first deployment go. The
// finalizer sits on its controller, which only the deployment holds: a
// deployment is a cyclic structure (its switch program closes over it),
// which a finalizer on the deployment itself would never run under.
func TestObsRegistryOutlivesDeployment(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := freqConfig(window.Tumbling(2), 5, false)
	cfg.Obs = reg
	trace := burstTrace(map[int64][]int{100 * ms: {1, 2}}, 10)
	run := func() *Deployment {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.RunFor(trace, 300*ms)
		return d
	}
	released := make(chan struct{})
	runtime.SetFinalizer(run().Controller(), func(*controller.Controller) { close(released) })
	run()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := parseMetrics(t, strings.NewReader(sb.String()))["omniwindow_switch_packets_total"]; got != 40 {
		t.Errorf("omniwindow_switch_packets_total = %v after two 20-packet deployments, want 40", got)
	}
	collected := false
	for i := 0; i < 20 && !collected; i++ {
		runtime.GC()
		select {
		case <-released:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Error("the registry keeps the first deployment alive")
	}
	runtime.KeepAlive(reg)
}

// TestUninstrumentedDeploymentHasNoObs: without Obs/DebugAddr the
// deployment has no registry and no endpoint — its counters still feed
// Stats, its registry handles stay nil — and the accessors are safe.
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

// oddSummaryApp is elementApp withholding the odd flows' summaries: their
// records enter the RDMA transport, the even flows' fall back to the
// packet path without entering it.
type oddSummaryApp struct{ *elementApp }

func (a oddSummaryApp) Query(k packet.FlowKey) afr.Attr {
	attr := a.elementApp.Query(k)
	if k.SrcIP%2 == 1 {
		attr.Summary = packet.Summary{}
	}
	return attr
}

// TestScrapeMatchesStats: each deployment-level event has one counter, so
// after a run under composed faults every scraped family that mirrors a
// Stats field reads that field, and the C&R histogram holds one sample per
// collected sub-window. The packet arm drops and duplicates AFRs, spills
// keys and logs to a durable store while a partition demotes and
// re-admits the primary; the RDMA arm injects verb faults under a
// distinct-count query, whose summary-carrying records fall back without
// entering the transport.
func TestScrapeMatchesStats(t *testing.T) {
	mirrors := map[string]func(Stats) int{
		"omniwindow_switch_packets_total":               func(s Stats) int { return s.Packets },
		"omniwindow_switch_spills_total":                func(s Stats) int { return s.Spills },
		"omniwindow_switch_spikes_total":                func(s Stats) int { return s.Spikes },
		"omniwindow_cr_afrs_total":                      func(s Stats) int { return s.AFRs },
		"omniwindow_cr_retransmitted_total":             func(s Stats) int { return s.Retransmitted },
		"omniwindow_cr_collect_seconds_count":           func(s Stats) int { return s.SubWindows },
		"omniwindow_durable_gaps_total":                 func(s Stats) int { return s.DurabilityGaps },
		"omniwindow_durable_quarantined_segments_total": func(s Stats) int { return s.QuarantinedSegments },
		"omniwindow_durable_fenced_writes_total":        func(s Stats) int { return s.FencedWrites },
		"omniwindow_failover_demotions_total":           func(s Stats) int { return s.Demotions },
		"omniwindow_failover_readmissions_total":        func(s Stats) int { return s.Readmissions },
		"omniwindow_failover_partition_events_total":    func(s Stats) int { return s.PartitionEvents },
		"omniwindow_failover_suppressed_windows_total":  func(s Stats) int { return s.SuppressedWindows },
		"omniwindow_rdma_fallback_afrs_total":           func(s Stats) int { return s.FallbackAFRs },
		"omniwindow_rdma_replayed_total":                func(s Stats) int { return s.RDMAReplayed },
	}
	pipeline := []string{"omniwindow_switch_packets_total", "omniwindow_switch_spills_total",
		"omniwindow_switch_spikes_total", "omniwindow_cr_afrs_total", "omniwindow_cr_retransmitted_total",
		"omniwindow_cr_collect_seconds_count"}
	for _, tc := range []struct {
		name      string
		config    func(t *testing.T) Config
		pkts      []packet.Packet
		families  []string // the mirrors the arm registers beyond pipeline
		exercised func(Stats) bool
	}{
		{"packet", func(t *testing.T) Config {
			cfg := partitionConfig(t.TempDir(), &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{3, 4, 5}}})
			chaosSpill(&cfg)
			cfg.plan.afrFaults = &everyThird{next: faults.New(faults.Config{Seed: 1, Drop: 0.10, Duplicate: 0.20, MaxDuplicates: 2})}
			return cfg
		}, partitionTrace(10), []string{"omniwindow_durable_gaps_total", "omniwindow_durable_quarantined_segments_total",
			"omniwindow_durable_fenced_writes_total", "omniwindow_failover_demotions_total",
			"omniwindow_failover_readmissions_total", "omniwindow_failover_partition_events_total",
			"omniwindow_failover_suppressed_windows_total"},
			func(s Stats) bool {
				return s.Spills > 0 && s.Retransmitted > 0 && s.Demotions > 0 && s.Readmissions > 0 &&
					s.PartitionEvents > 0 && s.FencedWrites > 0
			}},
		{"rdma", func(*testing.T) Config {
			cfg := distinctionConfig(true)
			cfg.AppFactory = func(r int) afr.StateApp { return oddSummaryApp{newElementApp(r).(*elementApp)} }
			cfg.plan.rdmaFaults = &faults.RDMASchedule{Seed: 1, VerbError: 0.15, PSNDrop: 0.15,
				QPError: faults.Fault{Fixed: []uint64{4}}}
			return cfg
		}, distinctionTrace(), []string{"omniwindow_rdma_fallback_afrs_total", "omniwindow_rdma_replayed_total"},
			func(s Stats) bool {
				return s.FallbackAFRs > 0 && s.RDMAReplayed > 0 && s.HotAFRs > 0 && s.ColdAFRs > 0
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := tc.config(t)
			cfg.Obs = reg
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.RunFor(tc.pkts, 10*100*ms)
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			// Scraped before Stats() publishes: the boundary's publish must
			// already have carried the per-packet counts.
			var text bytes.Buffer
			if err := reg.WritePrometheus(&text); err != nil {
				t.Fatal(err)
			}
			got := parseMetrics(t, &text)
			st := d.Stats()
			if !tc.exercised(st) {
				t.Fatalf("the faults did not reach every counter: %+v", st)
			}
			for name, field := range mirrors {
				registered := slices.Contains(pipeline, name) || slices.Contains(tc.families, name)
				v, ok := got[name]
				if ok != registered || int(v) != field(st) {
					t.Errorf("%s = %v (present %v, registered %v), Stats says %d", name, v, ok, registered, field(st))
				}
			}
		})
	}
}
