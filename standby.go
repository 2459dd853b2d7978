package omniwindow

import (
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/durable"
	"omniwindow/internal/obs"
)

// This file is the hot-standby protocol (Config.Standby): a liveness lease
// tells the standby when the primary is gone — dead (failover) or
// partitioned away (partitionProbe) — and one promote puts a new
// controller in service behind a fresh fencing term. The standby keeps no
// copy of the primary's state: the shared log holds every record a live
// sub-window needs, so promotion is recovery, the new controller rebuilt
// from the log the way a crash restart rebuilds it.

// openStandby arms the liveness lease the standby watches.
func (d *Deployment) openStandby() {
	d.standby = true
	ttl := d.cfg.plan.leaseTTL
	if ttl <= 0 {
		ttl = 2 * d.cfg.SubWindow
	}
	if ttl <= 0 {
		ttl = 2 * d.cfg.Grace
	}
	d.lease = durable.NewLease(int64(ttl))
	d.lease.Renew(0)
}

// failover promotes the standby after the primary's death is detected
// mid-collection. The standby declares the primary dead only once its
// lease lapses: the returned duration is the lease time that remained at
// the boundary (at), charged to the C&R virtual-time budget.
func (d *Deployment) failover(sw uint64, at int64) time.Duration {
	wait := time.Duration(d.lease.Remaining(at))
	// The crashed primary will never write again, but uniformity matters:
	// every promotion — crash or partition — advances the term, so the
	// WAL's term sequence alone tells the full failover history.
	d.promote(sw, 0)
	return wait
}

// partitionProbe is the standby's lease check under a partition schedule.
// It reads the lease AT the boundary (at). Returns the virtual time
// charged to the C&R budget.
func (d *Deployment) partitionProbe(sw uint64, at int64) time.Duration {
	if d.cfg.plan.partition == nil || !d.standby || !d.lease.Expired(at) {
		return 0
	}
	return d.partitionFailover(sw)
}

// partitionFailover promotes the standby over a live-but-partitioned
// primary. What makes the takeover safe is fencing: the standby wins the
// term CAS first, so every durable write the zombie attempts from then on
// is rejected with ErrFenced, and observing that rejection the old primary
// self-demotes — it stops emitting and parks until re-admission.
func (d *Deployment) partitionFailover(sw uint64) time.Duration {
	// If the CAS write itself cannot land (dead or faulted disk) there is
	// no fence, and without a fence the takeover is not safe — stay on
	// the old primary and retry next boundary.
	next, err := d.store.CASTerm(d.store.Term(), 2)
	if err != nil {
		return 0
	}

	// The zombie's last writes: the partitioned primary, not yet aware it
	// was deposed, attempts its boundary finish and checkpoint. Both are
	// rejected under its stale term.
	fencedBefore := d.store.FencedWrites()
	_ = d.store.AppendFinish(sw)
	d.checkpoint(sw)
	fenced := d.store.FencedWrites() - fencedBefore
	d.demoted = true
	d.ctr.demotions.Add(1)
	d.obs.ring.Record(obs.StageFenced, sw, -1, fenced)

	// No lease wait is charged — the standby promotes only after it
	// already observed the lease expired.
	d.promote(sw, next)
	d.obs.role.Set(2) // promoted, the demoted former primary still parked
	return 0
}

// promote puts a new controller in service at boundary sw. won is the
// fencing term the caller already CASed, or 0 to acquire the next one now.
// The controller is built fresh and rebuilt from the shared log after the
// CAS, so nothing the old primary writes from then on reaches it: the
// checkpoint, Missing charges for what the store lost, then every frame
// past the checkpoint — the in-flight sub-window's batches, triggers and
// spikes among them, so the recover phase NACKs back from the
// still-unreset region only what the log lacks. The old primary emitted
// every window up to sw, so each finish the log replays is suppressed, and
// each sub-window the log ends before (a degraded stretch, a dead store)
// is charged Missing and re-finished the same way, so the windows spanning
// it assemble Incomplete and none is emitted twice
// (Stats.SuppressedWindows). The winner then adopts the term: its WAL
// frames, segments and checkpoints carry it, and a deposed writer can
// never write under the old one again. Its first checkpoint re-logs
// nothing: the new controller is the log's fold.
func (d *Deployment) promote(sw, won uint64) {
	d.failedOver = true
	d.standby = false
	d.stats.Failovers++
	d.obs.role.Set(1)
	d.obs.ring.Record(obs.StageFailover, sw, -1, int64(won))
	d.lease.Release()
	if won == 0 && !d.storeDead {
		won, _ = d.store.CASTerm(d.store.Term(), 2) // stays 0 when the CAS cannot land
	}

	d.ctrl = newController(&d.cfg)
	if snap, recs, err := d.store.Recover(); err == nil { // a dead store has no log to read
		d.replayLog(snap, recs, d.suppress)
	}
	from := uint64(0)
	if lf, ok := d.ctrl.LastFinished(); ok {
		from = lf + 1
	}
	for s := from; s < sw; s++ {
		d.ctrl.NoteLost(s, 1)
		d.suppress(s)
	}
	// Instrumented only now, so the counters read as one controller's.
	d.ctrl.SetObs(controller.Instrument(d.reg))

	if won != 0 && d.store.AdoptTerm(won) == nil {
		d.term = won
		d.obs.term.Set(int64(won))
	}
	d.transport.reregister()
	d.announce(sw)
}

// suppress finishes sw on the promoted controller and discards the windows
// it completes: the old primary already emitted them.
func (d *Deployment) suppress(sw uint64) {
	d.ctr.suppressed.Add(int64(len(d.ctrl.FinishSubWindow(sw))))
}

// readmitDemoted returns a demoted former primary to service as the new
// standby after the partition healed. It keeps no state to wipe: a later
// promotion rebuilds from the log. The liveness lease is re-armed before
// the next boundary's probe — the freshly healed pair must not instantly
// re-promote over a lease nobody was renewing while no standby watched.
func (d *Deployment) readmitDemoted(sw uint64) {
	d.standby, d.demoted = true, false
	d.ctr.readmissions.Add(1)
	d.obs.role.Set(1)
	d.obs.ring.Record(obs.StageReadmit, sw, -1, 0)
	d.lease.Renew(d.now)
}

// maintainPartition runs the per-boundary partition bookkeeping: counts
// the boundaries whose renewal is cut, and re-admits a demoted node as the
// new standby at the first uncut one.
func (d *Deployment) maintainPartition(sw uint64) {
	switch {
	case d.cfg.plan.partition.RenewCut(sw):
		d.ctr.partitionEvents.Add(1)
	case d.demoted:
		d.readmitDemoted(sw)
	}
}

// renewLease extends the primary's liveness lease after a successful
// collection round — unless the partition schedule cuts this boundary's
// renewal, so the standby sees nothing. A no-op once no standby watches:
// after promotion the new primary has no peer until a demoted node is
// re-admitted.
func (d *Deployment) renewLease(sw uint64) {
	if d.standby && !d.cfg.plan.partition.RenewCut(sw) {
		d.lease.Renew(d.now)
	}
}
