package main

import (
	"time"

	"omniwindow"
	"omniwindow/internal/metrics"
)

// metricDef names one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before it counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the figures a user of the system sees, each reported for
// every workload from the untraced timed replays. Whether the emitted
// windows were right is not a metric here: it is the result line's
// correct, attempted and failed.
//
// The sandbox this was defined on shares its host: the same replay runs 10
// to 40% faster or slower from one quarter of an hour to the next (see
// README.md). Every time here is therefore divided by how much slower than
// nominal the reference kernel ran over the run (reference.go), and still
// carries the widest bound allowed. The counts repeat to a fraction
// of a percent and are bounded accordingly.
var endToEnd = []metricDef{
	{"packets_per_s", "pkt/s", "higher", 0.25},
	{"afrs_per_s", "AFR/s", "higher", 0.25},
	{"close_ms_p50", "ms", "lower", 0.25},
	{"close_ms_p90", "ms", "lower", 0.25},
	{"cpu_s_per_mpkt", "s", "lower", 0.25},
	{"allocs_per_pkt", "1/pkt", "lower", 0.02},
	{"alloc_bytes_per_pkt", "B/pkt", "lower", 0.02},
	{"retained_mb", "MB", "lower", 0.05},
	{"cr_virtual_ms_max", "ms", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the figures of single layers, a layer being a module of the
// repository, measured in the traced run only. Their times are as the
// clock read them, from one replay and one ladder pass;
// omniwindow.machine_slowdown says how slow the machine was meanwhile.
var perLayer = []metricDef{
	{Name: "omniwindow.packet_phase_share", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.boundary_share", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "omniwindow.new_ms", Unit: "ms", Better: "lower"},
	{Name: "omniwindow.afrs_per_subwindow", Unit: "count", Better: "lower"},
	{Name: "omniwindow.spill_share", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.recirc_passes_per_afr", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.unexplained_share", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "omniwindow.machine_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "trace.generate_s", Unit: "s", Better: "lower"},
	{Name: "trace.packets", Unit: "count", Better: "higher"},
	{Name: "trace.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "switchsim.inject_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "switchsim.inject_allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "window.onpacket_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "afr.track_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "afr.update_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "afr.enumerate_ns_per_afr", Unit: "ns", Better: "lower"},
	{Name: "afr.enumerate_allocs_per_afr", Unit: "1/AFR", Better: "lower"},
	{Name: "afr.inject_key_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "afr.reset_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "sketch.update_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sketch.query_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "controller.o1_collect_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.o2_insert_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.o3_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.o4_process_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.o5_evict_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.receive_ns_per_afr", Unit: "ns", Better: "lower"},
	{Name: "controller.ingest_ns_per_afr", Unit: "ns", Better: "lower"},
	{Name: "controller.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.finish_allocs_per_afr", Unit: "1/AFR", Better: "lower"},
	{Name: "controller.finish_bytes_per_afr", Unit: "B/AFR", Better: "lower"},
	{Name: "controller.table_size", Unit: "count", Better: "lower"},
	{Name: "controller.export_state_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.finish_speedup_procs", Unit: "ratio", Better: "higher"},
	{Name: "rdma.send_ns_per_afr", Unit: "ns", Better: "lower"},
	{Name: "rdma.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "rdma.hot_share", Unit: "ratio", Better: "higher"},
	{Name: "rdma.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "rdma.pending_len", Unit: "count", Better: "lower"},
	{Name: "durable.open_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.wal_append_ns_per_afr", Unit: "ns", Better: "lower"},
	{Name: "durable.wal_bytes_per_afr", Unit: "B/AFR", Better: "lower"},
	{Name: "durable.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "durable.fs_ops_per_boundary", Unit: "count", Better: "lower"},
	{Name: "durable.rotations", Unit: "count", Better: "lower"},
	{Name: "wire.snapshot_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.enabled_overhead_share", Unit: "ratio", Better: "lower"},
}

const tailPercentile = 0.90

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func packetsPerSecond(s replayStats) float64 {
	return ratio(float64(s.Stats.Packets), s.Wall.Seconds())
}

// medianOver is the median over the replays of a per-replay figure.
func medianOver(replays []replayStats, f func(replayStats) float64) float64 {
	xs := make([]float64, len(replays))
	for i, s := range replays {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEndMetrics reduces the timed replays to the end-to-end metrics, each
// the median over the replays of a per-replay figure. The close-time
// percentiles are the exception: every replay does the same work at the
// same boundary, so the close times are first reduced to one per
// sub-window, its median over the replays, which keeps the differences
// between sub-windows and drops a collection cycle or a slow write that hit
// one replay. The sub-windows before the first window is full are left out
// of them: the merge table is still filling, a start-up transient a fifth
// of the trace long, and with it in, the median fell on the one sub-window
// between the transient and the steady state. gen is the trace generation
// time in seconds. Every time is divided by slowdown, which makes it what
// the nominal machine would have taken.
func endToEndMetrics(w workload, timed []replayStats, gen, slowdown float64) map[string]float64 {
	over := func(f func(replayStats) float64) float64 { return medianOver(timed, f) }
	perPacket := func(f func(replayStats) float64) float64 {
		return over(func(s replayStats) float64 { return ratio(f(s), float64(s.Stats.Packets)) })
	}
	var closes []float64
	for sw := w.Plan.Size - 1; sw < w.SubWindows; sw++ {
		closes = append(closes, over(func(s replayStats) float64 { return millis(s.Closes[sw]) }))
	}
	return map[string]float64{
		"packets_per_s": over(packetsPerSecond) * slowdown,
		"afrs_per_s": over(func(s replayStats) float64 {
			return ratio(float64(s.Stats.AFRs), s.Boundary.Seconds())
		}) * slowdown,
		"close_ms_p50":        median(closes) / slowdown,
		"close_ms_p90":        metrics.Percentile(closes, tailPercentile) / slowdown,
		"cpu_s_per_mpkt":      1e6 * perPacket(func(s replayStats) float64 { return s.CPU.Seconds() }) / slowdown,
		"allocs_per_pkt":      perPacket(func(s replayStats) float64 { return float64(s.Mallocs) }),
		"alloc_bytes_per_pkt": perPacket(func(s replayStats) float64 { return float64(s.AllocBytes) }),
		"retained_mb":         over(func(s replayStats) float64 { return float64(s.RetainedBytes) / 1e6 }),
		"cr_virtual_ms_max":   over(func(s replayStats) float64 { return millis(s.Stats.MaxCollectVirtual) }),
		"setup_s":             (gen + over(func(s replayStats) float64 { return s.New.Seconds() })) / slowdown,
	}
}

// tracedRun is what a traced run has to work with.
type tracedRun struct {
	timed   []replayStats // the untraced timed replays
	traced  replayStats   // one replay with the span recorder on
	withObs replayStats   // one replay with the program's own instrumentation on
	ladder  *ladderResult
}

// perLayerMetrics derives the per-layer metrics from the traced replay's
// spans and counts and the ladder's rungs. The untraced timed replays give
// the base of the overhead shares. gen is the trace generation time in
// seconds.
func perLayerMetrics(w workload, t tracedRun, gen float64, packets int, slowdown float64) map[string]float64 {
	s, l := t.traced, t.ladder
	untracedPPS := medianOver(t.timed, packetsPerSecond)
	rung := func(name string) rungSum { return *l.rungs[name] }
	perBoundary := func(name string) float64 { return rung(name).ms() / float64(l.subWindows) }
	opMedian := func(f func(omniwindow.OpTimes) time.Duration) float64 {
		xs := make([]float64, len(s.OpTimes))
		for i, o := range s.OpTimes {
			xs[i] = millis(f(o))
		}
		return median(xs)
	}
	afrs := float64(s.Stats.AFRs)
	finish, finish1 := rung("controller.finish"), rung("controller.finish_1proc")

	return map[string]float64{
		"omniwindow.packet_phase_share":    ratio(s.PacketPhase.Seconds(), s.Wall.Seconds()),
		"omniwindow.boundary_share":        ratio(s.Boundary.Seconds(), s.Wall.Seconds()),
		"omniwindow.ns_per_pkt":            ratio(float64(s.PacketPhase.Nanoseconds()), float64(s.Stats.Packets)),
		"omniwindow.new_ms":                millis(s.New),
		"omniwindow.afrs_per_subwindow":    ratio(afrs, float64(s.Stats.SubWindows)),
		"omniwindow.spill_share":           ratio(float64(s.Stats.Spills), afrs),
		"omniwindow.recirc_passes_per_afr": ratio(float64(s.Stats.RecircPasses), afrs),
		"omniwindow.unexplained_share":     ratio((s.Wall - l.onPath(w)).Seconds(), s.Wall.Seconds()),
		"omniwindow.trace_overhead_share":  1 - ratio(packetsPerSecond(s), untracedPPS),
		"omniwindow.machine_slowdown":      slowdown,

		"trace.generate_s": gen,
		"trace.packets":    float64(packets),
		"trace.ns_per_pkt": ratio(gen*1e9, float64(packets)),

		"switchsim.inject_ns_per_pkt":     rung("switchsim.inject").nsPer(),
		"switchsim.inject_allocs_per_pkt": rung("switchsim.inject").mallocsPer(),
		"window.onpacket_ns_per_pkt":      rung("window.onpacket").nsPer(),

		"afr.track_ns_per_pkt":         rung("afr.track").nsPer(),
		"afr.update_ns_per_pkt":        rung("afr.update").nsPer(),
		"afr.enumerate_ns_per_afr":     rung("afr.enumerate").nsPer(),
		"afr.enumerate_allocs_per_afr": rung("afr.enumerate").mallocsPer(),
		"afr.inject_key_ns_per_key":    rung("afr.inject_key").nsPer(),
		"afr.reset_ns_per_slot":        rung("afr.reset").nsPer(),
		"sketch.update_ns_per_pkt":     rung("sketch.update").nsPer(),
		"sketch.query_ns_per_key":      rung("sketch.query").nsPer(),

		"controller.o1_collect_ms":         opMedian(func(o omniwindow.OpTimes) time.Duration { return o.Collect }),
		"controller.o2_insert_ms":          opMedian(func(o omniwindow.OpTimes) time.Duration { return o.Insert }),
		"controller.o3_merge_ms":           opMedian(func(o omniwindow.OpTimes) time.Duration { return o.Merge }),
		"controller.o4_process_ms":         opMedian(func(o omniwindow.OpTimes) time.Duration { return o.Process }),
		"controller.o5_evict_ms":           opMedian(func(o omniwindow.OpTimes) time.Duration { return o.Evict }),
		"controller.receive_ns_per_afr":    rung("controller.receive").nsPer(),
		"controller.ingest_ns_per_afr":     rung("controller.ingest").nsPer(),
		"controller.finish_ms":             perBoundary("controller.finish"),
		"controller.finish_allocs_per_afr": finish.mallocsPer(),
		"controller.finish_bytes_per_afr":  finish.bytesPer(),
		"controller.table_size":            float64(l.tableSize),
		"controller.export_state_ms":       perBoundary("controller.export_state"),
		"controller.finish_speedup_procs":  ratio(finish1.ms(), finish.ms()),

		"rdma.send_ns_per_afr": rung("rdma.send").nsPer(),
		"rdma.drain_ms":        perBoundary("rdma.drain"),
		"rdma.hot_share":       ratio(float64(l.hotAFRs), float64(l.afrs)),
		"rdma.fallback_share":  ratio(float64(l.fallbackAFRs), float64(l.afrs)),
		"rdma.pending_len":     float64(l.pendingLen),

		"durable.open_ms":               millis(l.openStore),
		"durable.wal_append_ns_per_afr": rung("durable.wal_append").nsPer(),
		"durable.wal_bytes_per_afr":     ratio(float64(l.walBytes), float64(l.afrs)),
		"durable.checkpoint_ms":         perBoundary("durable.checkpoint"),
		"durable.checkpoint_bytes":      float64(l.checkpointBytes),
		"durable.fs_ops_per_boundary":   ratio(float64(l.fsOps), float64(l.subWindows)),
		"durable.rotations":             float64(l.rotations),
		"wire.snapshot_encode_ms":       perBoundary("wire.snapshot_encode"),

		"obs.enabled_overhead_share": 1 - ratio(packetsPerSecond(t.withObs), untracedPPS),
	}
}
