// owtop is a terminal dashboard over an OmniWindow observability endpoint
// (Config.DebugAddr / obs.Serve). It polls /metrics, derives per-second
// rates from successive scrapes, re-estimates latency quantiles from the
// exposed histogram buckets with the same interpolation the live
// histograms use, and tails /debug/windows for the most recent lifecycle
// events.
//
// Run with:
//
//	owtop -addr 127.0.0.1:9900 [-interval 1s] [-once]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"omniwindow/internal/obs"
)

// histData is one histogram family instance rebuilt from its exposed
// bucket lines: per-bucket (non-cumulative) counts in bound order plus the
// trailing +Inf bucket, ready for obs.QuantileFromBuckets.
type histData struct {
	bounds []float64 // finite upper bounds, ascending
	counts []int64   // len(bounds)+1; last is +Inf
	total  int64
	sum    float64
}

// quantile estimates the q-quantile in seconds.
func (h *histData) quantile(q float64) float64 {
	return obs.QuantileFromBuckets(h.bounds, h.counts, h.total, q)
}

// snapshot is one parsed /metrics scrape.
type snapshot struct {
	at     time.Time
	values map[string]float64   // full sample name (labels included, le stripped)
	hists  map[string]*histData // histogram instance name → buckets
}

// parseMetrics parses Prometheus text exposition into a snapshot. Bucket
// lines are folded into histData per histogram instance (family + labels
// minus le); other samples land in values keyed by their full name.
func parseMetrics(text string, at time.Time) (*snapshot, error) {
	s := &snapshot{at: at, values: make(map[string]float64), hists: make(map[string]*histData)}
	type bucket struct {
		le  float64
		cum int64
	}
	buckets := make(map[string][]bucket)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable value in %q: %v", line, err)
		}
		if base, le, ok := splitBucket(name); ok {
			leF := inf
			if le != "+Inf" {
				leF, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("unparseable le in %q: %v", line, err)
				}
			}
			buckets[base] = append(buckets[base], bucket{le: leF, cum: int64(val)})
			continue
		}
		s.values[name] = val
	}
	for base, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		h := &histData{}
		var prev int64
		for _, b := range bs {
			c := b.cum - prev
			prev = b.cum
			if b.le == inf {
				h.counts = append(h.counts, c)
				continue
			}
			h.bounds = append(h.bounds, b.le)
			h.counts = append(h.counts, c)
		}
		if len(h.counts) == len(h.bounds) {
			h.counts = append(h.counts, 0) // exposition omitted +Inf
		}
		h.total = prev
		h.sum = s.values[base+"_sum"]
		if c, ok := s.values[base+"_count"]; ok {
			h.total = int64(c)
		}
		s.hists[base] = h
	}
	return s, nil
}

var inf = func() float64 { v, _ := strconv.ParseFloat("+Inf", 64); return v }()

// splitBucket dissects a `fam_bucket{...,le="x"}` sample into the
// histogram instance name (family + labels minus le) and the le value.
func splitBucket(name string) (base, le string, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name[:i], "_bucket") {
		return "", "", false
	}
	fam := strings.TrimSuffix(name[:i], "_bucket")
	inner := strings.TrimSuffix(name[i+1:], "}")
	var rest []string
	for _, pair := range strings.Split(inner, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return "", "", false
		}
		if kv[0] == "le" {
			unq, err := strconv.Unquote(kv[1])
			if err != nil {
				return "", "", false
			}
			le = unq
			continue
		}
		rest = append(rest, pair)
	}
	if le == "" {
		return "", "", false
	}
	base = fam
	if len(rest) > 0 {
		base = fam + "{" + strings.Join(rest, ",") + "}"
	}
	return base, le, true
}

// sumMatching totals every sample whose family (name before '{') equals
// fam — the per-switch instances of a labeled family fold into one number.
func (s *snapshot) sumMatching(fam string) float64 {
	var total float64
	for name, v := range s.values {
		f := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			f = name[:i]
		}
		if f == fam {
			total += v
		}
	}
	return total
}

// hasFamily reports whether the scrape carries any sample of the family,
// labeled or not — used to keep optional panels (RDMA) off the screen for
// deployments that never registered them.
func (s *snapshot) hasFamily(fam string) bool {
	for name := range s.values {
		f := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			f = name[:i]
		}
		if f == fam {
			return true
		}
	}
	return false
}

// qpStateName maps the omniwindow_rdma_qp_state gauge value onto the
// transport's state-machine names (rdma.QPState).
func qpStateName(v float64) string {
	switch int(v) {
	case 0:
		return "RTS"
	case 1:
		return "ERROR"
	case 2:
		return "RECOVERING"
	}
	return "UNKNOWN"
}

// roleName maps the omniwindow_failover_role gauge onto the serving
// controller's provenance.
func roleName(v float64) string {
	switch int(v) {
	case 0:
		return "PRIMARY"
	case 1:
		return "PROMOTED"
	case 2:
		return "PROMOTED+PARKED"
	}
	return "UNKNOWN"
}

// rate is the per-second increase of a (possibly labeled) counter family
// between two snapshots; 0 on the first scrape or counter reset.
func rate(prev, cur *snapshot, fam string) float64 {
	if prev == nil {
		return 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	d := cur.sumMatching(fam) - prev.sumMatching(fam)
	if d < 0 {
		return 0 // restart reset the counters
	}
	return d / dt
}

// mergedHist folds every instance of a histogram family (e.g. per-switch
// C&R latency) into one distribution. Instances must share a bucket
// layout, which obs histograms of one family always do.
func (s *snapshot) mergedHist(fam string) *histData {
	var out *histData
	for name, h := range s.hists {
		f := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			f = name[:i]
		}
		if f != fam {
			continue
		}
		if out == nil {
			out = &histData{bounds: h.bounds, counts: append([]int64(nil), h.counts...), total: h.total, sum: h.sum}
			continue
		}
		if len(h.counts) == len(out.counts) {
			for i, c := range h.counts {
				out.counts[i] += c
			}
			out.total += h.total
			out.sum += h.sum
		}
	}
	return out
}

// traceEvent is one /debug/windows entry as owtop displays it.
type traceEvent struct {
	At        int64  `json:"at_unix_ns"`
	Stage     string `json:"stage"`
	SubWindow uint64 `json:"sub_window"`
	Shard     int    `json:"shard"`
	Value     int64  `json:"value"`
}

// fmtSeconds renders a latency in the friendliest unit.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// render writes one dashboard frame.
func render(w io.Writer, prev, cur *snapshot, events []traceEvent) {
	fmt.Fprintf(w, "owtop — %s\n\n", cur.at.Format("15:04:05"))

	fmt.Fprintf(w, "  ingest    %8.0f AFR/s   %8.0f pkt/s   dup %.0f/s\n",
		rate(prev, cur, "omniwindow_controller_afrs_total"),
		rate(prev, cur, "omniwindow_switch_packets_total"),
		rate(prev, cur, "omniwindow_controller_duplicates_total"))
	fmt.Fprintf(w, "  windows   %8.0f total   incomplete %.0f   degraded %.0f\n",
		cur.sumMatching("omniwindow_controller_windows_total"),
		cur.sumMatching("omniwindow_controller_windows_incomplete_total"),
		cur.sumMatching("omniwindow_controller_windows_degraded_total"))
	fmt.Fprintf(w, "  loss      shed %.0f   recovered %.0f   retransmitted %.0f\n",
		cur.sumMatching("omniwindow_controller_shed_total")+cur.sumMatching("omniwindow_collector_shed_afrs_total"),
		cur.sumMatching("omniwindow_controller_recovered_total"),
		cur.sumMatching("omniwindow_cr_retransmitted_total"))
	if depth := cur.sumMatching("omniwindow_collector_queue_depth"); depth > 0 ||
		cur.sumMatching("omniwindow_collector_received_total") > 0 {
		fmt.Fprintf(w, "  collector queue %.0f   table %.0f flows   decode failures %.0f\n",
			depth,
			cur.sumMatching("omniwindow_collector_table_size"),
			cur.sumMatching("omniwindow_collector_decode_failures_total"))
	}
	if cur.hasFamily("omniwindow_rdma_qp_state") {
		fmt.Fprintf(w, "  rdma      QP %-10s retries %.1f/s   fallback %.0f   replayed %.0f   lost %.0f\n",
			qpStateName(cur.sumMatching("omniwindow_rdma_qp_state")),
			rate(prev, cur, "omniwindow_rdma_verb_retries_total"),
			cur.sumMatching("omniwindow_rdma_fallback_afrs_total"),
			cur.sumMatching("omniwindow_rdma_replayed_total"),
			cur.sumMatching("omniwindow_rdma_lost_afrs_total"))
	}
	if cur.hasFamily("omniwindow_durable_degraded") {
		state := "OK"
		if cur.sumMatching("omniwindow_durable_degraded") > 0 {
			state = "DEGRADED"
		}
		fmt.Fprintf(w, "  disk      %-10s wal errors %.1f/s   gaps %.0f   quarantined %.0f   scrub errors %.0f\n",
			state,
			rate(prev, cur, "omniwindow_durable_wal_errors_total"),
			cur.sumMatching("omniwindow_durable_gaps_total"),
			cur.sumMatching("omniwindow_durable_quarantined_segments_total"),
			cur.sumMatching("omniwindow_durable_scrub_errors_total"))
	}

	if cur.hasFamily("omniwindow_failover_term") {
		fmt.Fprintf(w, "  failover  %-18s term %.0f   fenced %.1f/s   partitions %.0f   demoted %.0f   readmitted %.0f\n",
			roleName(cur.sumMatching("omniwindow_failover_role")),
			cur.sumMatching("omniwindow_failover_term"),
			rate(prev, cur, "omniwindow_durable_fenced_writes_total"),
			cur.sumMatching("omniwindow_failover_partition_events_total"),
			cur.sumMatching("omniwindow_failover_demotions_total"),
			cur.sumMatching("omniwindow_failover_readmissions_total"))
	}

	fmt.Fprintf(w, "\n  latency          p50        p90        p99\n")
	for _, row := range []struct{ label, fam string }{
		{"C&R round", "omniwindow_cr_collect_seconds"},
		{"finish", "omniwindow_controller_finish_seconds"},
		{"O4 process", "omniwindow_controller_op_process_seconds"},
		{"WAL append", "omniwindow_durable_wal_append_seconds"},
		{"checkpoint", "omniwindow_durable_checkpoint_seconds"},
	} {
		h := cur.mergedHist(row.fam)
		if h == nil || h.total == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %9s  %9s  %9s  (n=%d)\n", row.label,
			fmtSeconds(h.quantile(0.50)), fmtSeconds(h.quantile(0.90)), fmtSeconds(h.quantile(0.99)), h.total)
	}

	if len(events) > 0 {
		fmt.Fprintf(w, "\n  recent window events\n")
		for _, e := range events {
			fmt.Fprintf(w, "  %s  sub %-5d %-15s shard %-3d value %d\n",
				time.Unix(0, e.At).Format("15:04:05.000"), e.SubWindow, e.Stage, e.Shard, e.Value)
		}
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9900", "observability endpoint (host:port or full URL)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "render a single frame and exit")
	events := flag.Int("events", 8, "recent trace events to show (0 disables)")
	flag.Parse()

	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	scrape := func() (*snapshot, []traceEvent, error) {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		snap, err := parseMetrics(string(body), time.Now())
		if err != nil {
			return nil, nil, err
		}
		var evs []traceEvent
		if *events > 0 {
			if r2, err := client.Get(fmt.Sprintf("%s/debug/windows?last=%d", base, *events)); err == nil {
				var dump struct {
					Events []traceEvent `json:"events"`
				}
				if json.NewDecoder(r2.Body).Decode(&dump) == nil {
					evs = dump.Events
				}
				r2.Body.Close()
			}
		}
		return snap, evs, nil
	}

	var prev *snapshot
	for {
		cur, evs, err := scrape()
		if err != nil {
			fmt.Fprintf(os.Stderr, "owtop: %v\n", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\033[2J\033[H") // clear screen, home cursor
		}
		render(os.Stdout, prev, cur, evs)
		if *once {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}
