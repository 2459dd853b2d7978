package omniwindow

import (
	"fmt"
	"time"

	"omniwindow/internal/durable"
	"omniwindow/internal/obs"
	"omniwindow/internal/wire"
)

// This file is the hot-standby protocol (Config.Standby): a second
// controller tails every checkpoint cut, a liveness lease tells it when the
// primary is gone — dead (failover) or partitioned away (partitionProbe) —
// and one promote puts it in service behind a fresh fencing term.

// openStandby builds the standby controller and arms the liveness lease.
func (d *Deployment) openStandby() error {
	standby, err := newController(&d.cfg, d.apps[0])
	if err != nil {
		return fmt.Errorf("omniwindow: standby controller: %w", err)
	}
	d.standby = standby
	ttl := d.cfg.plan.leaseTTL
	if ttl <= 0 {
		ttl = 2 * d.cfg.SubWindow
	}
	if ttl <= 0 {
		ttl = 2 * d.cfg.Grace
	}
	d.lease = durable.NewLease(int64(ttl))
	d.lease.Renew(0)
	return nil
}

// feedStandby is the standby tailing a checkpoint: it applies the cut,
// which carries every column finished since the standby's last one, so it
// stays at most one checkpoint interval behind the primary — unless the
// partition schedule cut the checkpoint channel at this boundary, in which
// case the standby silently goes stale until the next cut reaches it.
func (d *Deployment) feedStandby(sw uint64, snap *wire.Snapshot) {
	if d.standby != nil && !d.cfg.plan.partition.CkptCut(sw) {
		d.standby.RestoreState(snap)
	}
}

// untailed is the first boundary the standby's checkpoint tailing has not
// seen: [untailed, the in-flight sub-window) lives only in the primary it
// is about to replace.
func (d *Deployment) untailed() uint64 {
	if lf, ok := d.standby.LastFinished(); ok {
		return lf + 1
	}
	return 0
}

// failover promotes the standby after the primary's death is detected
// mid-collection. The standby declares the primary dead only once its
// lease lapses: the returned duration is the lease time that remained at
// the boundary (at), charged to the C&R virtual-time budget.
//
// A failover inside a degraded-durability stretch is the one live path
// where gaps become damage: the standby's last tailed checkpoint predates
// the stretch, and nothing durable covers the boundaries since — those
// sub-windows are charged Missing on the promoted controller, so their
// windows assemble Incomplete. The in-flight sub-window is excluded:
// promote recovers it live.
func (d *Deployment) failover(sw uint64, at int64) time.Duration {
	if d.degraded {
		for s := d.untailed(); s < sw; s++ {
			d.standby.NoteLost(s, 1)
		}
	}
	wait := time.Duration(d.lease.Remaining(at))
	// The crashed primary will never write again, but uniformity matters:
	// every promotion — crash or partition — advances the term, so the
	// WAL's term sequence alone tells the full failover history.
	d.promote(sw, 0)
	return wait
}

// partitionProbe is the standby's lease check under a partition schedule.
// It reads the lease AT the boundary (at) through its own clock: constant
// drift makes a fast standby see expiry early (a spurious but
// fencing-safe takeover) and a slow one see it late (delayed promotion).
// Returns the virtual time charged to the C&R budget.
func (d *Deployment) partitionProbe(sw uint64, at int64) time.Duration {
	ps := d.cfg.plan.partition
	if ps == nil || d.standby == nil || d.lease == nil || !d.lease.Expired(at+ps.Drift()) {
		return 0
	}
	return d.partitionFailover(sw)
}

// partitionFailover promotes the standby over a live-but-partitioned
// primary. What makes the takeover safe is fencing: the standby wins the
// term CAS first, so every durable write the zombie attempts from then on
// is rejected with ErrFenced, and observing that rejection the old primary
// self-demotes — it stops emitting and parks until re-admission.
//
// Boundaries the standby's checkpoint tailing missed (cut channel,
// degraded stretch) hold records that now live only in the unreachable
// half: they are charged Missing on the promoted controller, so every
// window spanning them assembles Incomplete instead of silently partial.
// The windows ENDING at those boundaries were already emitted by the old
// primary — legitimately, it held the lease then — so the promoted
// controller re-finishes those boundaries and discards the duplicate
// outputs (Stats.SuppressedWindows).
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
	d.demotedCtrl = d.ctrl
	d.cleanSince = 0
	d.stats.Demotions++
	d.obs.demotions.Inc()
	d.obs.ring.Record(obs.StageFenced, sw, -1, fenced)

	for s := d.untailed(); s < sw; s++ {
		d.standby.NoteLost(s, 1)
		w := d.standby.FinishSubWindow(s)
		d.stats.SuppressedWindows += len(w)
		d.obs.suppressed.Add(int64(len(w)))
	}

	// No lease wait is charged — the standby promotes only after it
	// already observed the lease expired.
	d.promote(sw, next)
	d.obs.role.Set(2) // promoted, the demoted former primary still parked
	return 0
}

// promote puts the standby in service at boundary sw. won is the fencing
// term the caller already CASed, or 0 to acquire the next one now; the
// winner adopts it, so its WAL frames, segments and checkpoints carry it
// and a deposed writer can never write under the old one again (its first
// checkpoint cuts the full range: see durable.Store.CutFrom). The
// standby holds the last checkpoint it tailed, so its only gap is the
// in-flight sub-window, whose switch state is still intact (the reset has
// not run): everything delivered for it so far went to the old primary
// and is gone, the re-sent trigger re-announces its key count, and the
// recover phase NACKs the whole gap back from the still-unreset region.
func (d *Deployment) promote(sw, won uint64) {
	d.failedOver = true
	d.stats.Failovers++
	d.obs.role.Set(1)
	d.obs.ring.Record(obs.StageFailover, sw, -1, int64(won))
	d.lease.Release()
	d.ctrls[0], d.ctrl, d.standby = d.standby, d.standby, nil
	if won == 0 && !d.storeDead {
		won, _ = d.store.CASTerm(d.store.Term(), 2) // stays 0 when the CAS cannot land
	}
	if won != 0 && d.store.AdoptTerm(won) == nil {
		d.term = won
		d.obs.term.Set(int64(won))
	}
	d.transport.reregister()
	d.announce(sw)
}

// readmitDemoted returns a demoted former primary to service as the new
// standby after the partition healed: its stale state is wiped and
// re-seeded from the current primary (as if it had just tailed a
// checkpoint), and the liveness lease is re-armed before the next
// boundary's probe — the freshly healed pair must not instantly
// re-promote over a lease nobody was renewing while no standby watched.
func (d *Deployment) readmitDemoted(sw uint64) {
	d.standby = d.demotedCtrl
	d.demotedCtrl = nil
	d.cleanSince = 0
	d.standby.RestoreState(d.ctrl.ExportState())
	d.stats.Readmissions++
	d.obs.readmissions.Inc()
	d.obs.role.Set(1)
	d.obs.ring.Record(obs.StageReadmit, sw, -1, 0)
	d.lease.Renew(d.now)
}

// maintainPartition runs the per-boundary partition bookkeeping: counts
// boundaries touched by an active fault, and — once a demoted node has
// seen enough consecutive clean boundaries — re-admits it as the new
// standby (the test plan's readmitAfter; negative disables re-admission).
func (d *Deployment) maintainPartition(sw uint64) {
	ps := d.cfg.plan.partition
	if ps == nil {
		return
	}
	if ps.Any(sw) {
		d.stats.PartitionEvents++
		d.obs.partitionEvents.Inc()
		d.cleanSince = 0
		return
	}
	if d.demotedCtrl == nil || d.cfg.plan.readmitAfter < 0 {
		return
	}
	d.cleanSince++
	if d.cleanSince >= max(d.cfg.plan.readmitAfter, 1) {
		d.readmitDemoted(sw)
	}
}

// renewLease extends the primary's liveness lease after a successful
// collection round — unless the partition schedule says this boundary's
// renewal is lost (the standby sees nothing) or gray (it lands late,
// possibly after the lease already lapsed). A no-op once no standby
// watches: after promotion the new primary has no peer until a demoted
// node is re-admitted.
func (d *Deployment) renewLease(sw uint64) {
	if d.lease == nil || d.standby == nil {
		return
	}
	ps := d.cfg.plan.partition
	if ps.RenewCut(sw) {
		return // the renewal never arrives
	}
	if gray, delay := ps.GrayAt(sw); gray {
		d.lease.RenewDelayed(d.now, delay)
		return
	}
	d.lease.Renew(d.now)
}
