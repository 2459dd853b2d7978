package omniwindow

import (
	"fmt"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
)

// This file wires the deployment into internal/obs: counters and latency
// histograms over the C&R pipeline, window-lifecycle trace events, and
// the optional HTTP debug endpoint (Config.DebugAddr). Instrumentation is
// strictly opt-in — without Config.Obs or Config.DebugAddr every handle
// below stays nil and each call site is an allocation-free no-op, which
// is what keeps the hot paths within the benchmark-regression budget.

// deployObs holds the deployment-level instrumentation handles. These
// cover what the controller and durable store cannot see themselves: the
// switch-side pipeline (packets, spills, spikes)
// and the C&R driver (virtual collect time, retransmissions).
type deployObs struct {
	packets *obs.Counter
	afrs    *obs.Counter
	spills  *obs.Counter
	spikes  *obs.Counter
	retrans *obs.Counter
	collect *obs.Histogram // modeled C&R virtual time per sub-window
	ring    *obs.Ring
	// Degraded-durability mode (deployment-level: the store cannot see
	// the skip decisions it never receives).
	durDegraded *obs.Gauge   // 1 while durable writes are suspended
	durGaps     *obs.Counter // durable writes skipped while degraded
	// Failover topology (hot-standby pairs), each set in standby.go where
	// the state it mirrors changes: a scrape runs beside a live deployment
	// and must never read the deployment's own fields.
	term, role                  *obs.Gauge
	demotions, readmissions     *obs.Counter
	partitionEvents, suppressed *obs.Counter
}

// setupObs builds the registry (or adopts the caller-supplied one),
// instruments every layer, and starts the debug endpoint when DebugAddr
// is set. A no-op when neither Obs nor DebugAddr is configured.
func (d *Deployment) setupObs() error {
	cfg := &d.cfg
	if cfg.Obs == nil && cfg.DebugAddr == "" {
		return nil
	}
	d.reg = cfg.Obs
	if d.reg == nil {
		d.reg = obs.NewRegistry()
	}
	d.obs = deployObs{
		packets: d.reg.Counter("omniwindow_switch_packets_total", "trace packets processed through the switch pipeline"),
		afrs:    d.reg.Counter("omniwindow_cr_afrs_total", "AFR records collected across C&R rounds"),
		spills:  d.reg.Counter("omniwindow_switch_spills_total", "flow keys spilled to the controller (flowkey array full)"),
		spikes:  d.reg.Counter("omniwindow_switch_spikes_total", "latency-spike packets forwarded to the controller"),
		retrans: d.reg.Counter("omniwindow_cr_retransmitted_total", "AFR records re-sent by the NACK/retransmit protocol"),
		collect: d.reg.Histogram("omniwindow_cr_collect_seconds", "modeled C&R virtual time per sub-window (enumeration + recovery + reset)", nil),
		ring:    d.reg.Ring(0),
	}

	// RDMA transport: the QP state gauge and the fault/recovery counters
	// are scrape-time functions over the transport's own (mutex-guarded)
	// stats, so the hot send path carries no extra instrumentation.
	if rp, ok := d.transport.(*rdmaPath); ok {
		tr := rp.tr
		d.reg.GaugeFunc("omniwindow_rdma_qp_state", "RDMA queue pair state (0=RTS, 1=Error, 2=Recovering)",
			func() int64 { return int64(tr.State()) })
		d.reg.CounterFunc("omniwindow_rdma_verb_errors_total", "RDMA verb completion errors (injected CQ errors)",
			func() int64 { return int64(tr.Stats().VerbErrors) })
		d.reg.CounterFunc("omniwindow_rdma_verb_retries_total", "RNR-style verb retries after transient completion errors",
			func() int64 { return int64(tr.Stats().VerbRetries) })
		d.reg.CounterFunc("omniwindow_rdma_fallback_afrs_total", "records rerouted from the RDMA transport to the packet C&R path",
			func() int64 { return int64(tr.Stats().Fallbacks) })
		d.reg.CounterFunc("omniwindow_rdma_replayed_total", "verbs re-applied by the PSN-gap NACK/replay loop",
			func() int64 { return int64(tr.Stats().Replayed) })
		d.reg.CounterFunc("omniwindow_rdma_lost_afrs_total", "records the RDMA transport dropped irrecoverably (charged to shed)",
			func() int64 { return int64(tr.Stats().Lost) })
		d.reg.CounterFunc("omniwindow_rdma_qp_recoveries_total", "successful QP Error→Recovering boundary recoveries",
			func() int64 { return int64(tr.Stats().QPRecoveries) })
	}

	d.ctrl.SetObs(controller.Instrument(d.reg))
	if d.store != nil {
		d.store.Instrument(d.reg)
		d.obs.durDegraded = d.reg.Gauge("omniwindow_durable_degraded", "1 while durable writes are suspended after persistent disk faults (0 = durable)")
		d.obs.durGaps = d.reg.Counter("omniwindow_durable_gaps_total", "durable writes skipped or failed while in degraded-durability mode")
	}
	// Failover topology: who holds the fencing term and what the serving
	// controller's provenance is. Registered only for hot-standby
	// deployments — owtop hides its failover panel when these families
	// are absent.
	if cfg.Standby {
		d.obs.term = d.reg.Gauge("omniwindow_failover_term", "fencing term held by the serving controller")
		d.obs.term.Set(int64(d.term))
		d.obs.role = d.reg.Gauge("omniwindow_failover_role", "serving controller's provenance (0=original primary, 1=promoted standby, 2=promoted with the demoted former primary still parked)")
		d.obs.demotions = d.reg.Counter("omniwindow_failover_demotions_total", "zombie-primary self-demotions after fenced writes")
		d.obs.readmissions = d.reg.Counter("omniwindow_failover_readmissions_total", "demoted former primaries re-admitted as the new standby")
		d.obs.partitionEvents = d.reg.Counter("omniwindow_failover_partition_events_total", "sub-window boundaries touched by an active partition fault")
		d.obs.suppressed = d.reg.Counter("omniwindow_failover_suppressed_windows_total", "duplicate window emissions discarded by the promoted standby")
	}

	if cfg.DebugAddr != "" {
		srv, err := obs.Serve(cfg.DebugAddr, d.reg)
		if err != nil {
			return fmt.Errorf("omniwindow: debug endpoint: %w", err)
		}
		d.debugSrv = srv
	}
	return nil
}

// DebugURL returns the running debug endpoint's base URL ("" when
// DebugAddr was not configured).
func (d *Deployment) DebugURL() string { return d.debugSrv.URL() }

// CloseDebug stops the debug endpoint (a no-op when DebugAddr was not
// configured). Safe to call more than once.
func (d *Deployment) CloseDebug() error { return d.debugSrv.Close() }
