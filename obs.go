package omniwindow

import (
	"fmt"
	"sync/atomic"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
)

// This file wires the deployment into internal/obs: its event counters,
// the C&R latency histogram, window-lifecycle trace events and the
// optional HTTP debug endpoint (Config.DebugAddr). Stats() reads the
// counters too; without Config.Obs or Config.DebugAddr the deployObs
// handles stay nil and each call site is an allocation-free no-op.

// counters holds one atomic per deployment-level event, written where the
// event happens and read by Stats() and the registry alike. The per-packet
// three are plain ints on the packet goroutine until publish.
type counters struct {
	packets, spills, spikes, afrs, retransmitted, fallbacks              atomic.Int64
	durabilityGaps, demotions, readmissions, partitionEvents, suppressed atomic.Int64
}

// publish copies the per-packet counts into their atomics, at each
// boundary and in Stats(): no atomic add lands on the per-packet path.
func (d *Deployment) publish() {
	d.ctr.packets.Store(int64(d.packets))
	d.ctr.spills.Store(int64(d.spills))
	d.ctr.spikes.Store(int64(d.spikes))
}

// deployObs holds the registry handles that are not counters. Each gauge
// is set where the state it mirrors changes: a scrape runs beside a live
// deployment and must never read the deployment's own fields.
type deployObs struct {
	collect     *obs.Histogram // modeled C&R virtual time per sub-window
	ring        *obs.Ring
	durDegraded *obs.Gauge // 1 while durable writes are skipped (the store never sees them)
	term, role  *obs.Gauge // failover topology (hot-standby pairs), set in standby.go
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
	c := &d.ctr
	d.reg.CounterFunc("omniwindow_switch_packets_total", "trace packets processed through the switch pipeline", c.packets.Load)
	d.reg.CounterFunc("omniwindow_cr_afrs_total", "AFR records collected across C&R rounds", c.afrs.Load)
	d.reg.CounterFunc("omniwindow_switch_spills_total", "flow keys spilled to the controller (flowkey array full)", c.spills.Load)
	d.reg.CounterFunc("omniwindow_switch_spikes_total", "latency-spike packets forwarded to the controller", c.spikes.Load)
	d.reg.CounterFunc("omniwindow_cr_retransmitted_total", "AFR records re-sent by the NACK/retransmit protocol", c.retransmitted.Load)
	d.obs = deployObs{
		collect: d.reg.Histogram("omniwindow_cr_collect_seconds", "modeled C&R virtual time per sub-window (enumeration + recovery + reset; the store's IO wait excluded)", nil),
		ring:    d.reg.Ring(0),
	}

	// RDMA transport: the QP state gauge and the fault/recovery counters
	// are scrape-time functions over the transport's own (mutex-guarded)
	// stats, so the hot send path carries no extra instrumentation; the
	// fallbacks are the deployment's (summary records bypass the transport).
	if rp, ok := d.transport.(*rdmaPath); ok {
		tr := rp.tr
		d.reg.GaugeFunc("omniwindow_rdma_qp_state", "RDMA queue pair state (0=RTS, 1=Error, 2=Recovering)",
			func() int64 { return int64(tr.State()) })
		d.reg.CounterFunc("omniwindow_rdma_verb_errors_total", "RDMA verb completion errors (injected CQ errors)",
			func() int64 { return int64(tr.Stats().VerbErrors) })
		d.reg.CounterFunc("omniwindow_rdma_verb_retries_total", "RNR-style verb retries after transient completion errors",
			func() int64 { return int64(tr.Stats().VerbRetries) })
		d.reg.CounterFunc("omniwindow_rdma_fallback_afrs_total", "records the packet C&R path carried instead of the RDMA transport (rerouted, or carrying a distinct-count summary)",
			c.fallbacks.Load)
		d.reg.CounterFunc("omniwindow_rdma_replayed_total", "records of verbs re-applied by the PSN-gap NACK/replay loop",
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
		d.reg.CounterFunc("omniwindow_durable_gaps_total", "durable writes skipped or failed while in degraded-durability mode", c.durabilityGaps.Load)
	}
	// Failover topology: who holds the fencing term and what the serving
	// controller's provenance is. Registered only for hot-standby
	// deployments — owtop hides its failover panel when these families
	// are absent.
	if cfg.Standby {
		d.obs.term = d.reg.Gauge("omniwindow_failover_term", "fencing term held by the serving controller")
		d.obs.term.Set(int64(d.term))
		d.obs.role = d.reg.Gauge("omniwindow_failover_role", "serving controller's provenance (0=original primary, 1=promoted standby, 2=promoted with the demoted former primary still parked)")
		d.reg.CounterFunc("omniwindow_failover_demotions_total", "zombie-primary self-demotions after fenced writes", c.demotions.Load)
		d.reg.CounterFunc("omniwindow_failover_readmissions_total", "demoted former primaries re-admitted as the new standby", c.readmissions.Load)
		d.reg.CounterFunc("omniwindow_failover_partition_events_total", "sub-window boundaries touched by an active partition fault", c.partitionEvents.Load)
		d.reg.CounterFunc("omniwindow_failover_suppressed_windows_total", "duplicate window emissions discarded by the promoted standby", c.suppressed.Load)
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
