package omniwindow

import (
	"errors"
	"fmt"
	"time"

	"omniwindow/internal/durable"
	"omniwindow/internal/hashing"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// This file wires the deployment into internal/durable: WAL appends on
// every controller-bound delivery, checkpoints at sub-window boundaries,
// crash-restart recovery, and the hot-standby promotion path.
//
// Disk faults never stop telemetry. When the store's own retry budget
// cannot land a write (persistent EIO, a full disk), the deployment flips
// to DEGRADED durability: windows keep flowing byte-identical to the
// healthy run, while skipped checkpoint/WAL writes are counted as
// DurabilityGaps — pressure, not damage, because the live state is still
// whole. Every boundary while degraded probes the disk with a fresh
// checkpoint + new WAL generation (durable.Heal); the first success
// re-enters durable mode. Damage only appears if a crash or failover
// lands inside a degraded stretch: the un-replayable sub-windows are then
// charged as Missing (NoteLost), so their windows assemble Incomplete —
// explicitly, never silently wrong.

// logBatch appends one delivery batch's records to the write-ahead log,
// grouped per controller shard (matching the table partitioning) and per
// sub-window: one WAL frame is one (shard, sub-window) group of one batch,
// so a boundary writes about shards × batches frames, not one per AFR.
// retrans marks records that answer a NACK. Grouping runs over
// deployment-held scratch (walKeys/walParts) that is reused across
// batches: the group count is tiny (shards × live sub-windows), so a
// linear key scan beats a per-batch map allocation.
func (d *Deployment) logBatch(retrans bool, recs []packet.AFR) {
	if d.store == nil || d.storeDead || d.crashed || len(recs) == 0 {
		return
	}
	if d.degraded {
		d.noteDurabilityGap()
		return
	}
	keys, parts := d.walKeys[:0], d.walParts
	for _, r := range recs {
		k := walKey{hashing.Shard(r.Key, d.ckptShards), r.SubWindow}
		gi := -1
		for i := range keys {
			if keys[i] == k {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(keys)
			keys = append(keys, k)
			if gi == len(parts) {
				parts = append(parts, nil)
			}
		}
		parts[gi] = append(parts[gi], r)
	}
	d.walKeys, d.walParts = keys, parts
	for i, k := range keys {
		var err error
		if d.degraded {
			// A mid-batch fault degrades the rest of the batch's
			// groups too — each skipped frame is one more gap.
			d.noteDurabilityGap()
		} else {
			err = d.store.AppendBatch(k.shard, k.sw, retrans, parts[i])
		}
		parts[i] = parts[i][:0]
		if err != nil {
			d.durabilityFault(k.sw, err)
			if d.storeDead {
				return
			}
		}
	}
}

// logTrigger appends a sub-window's trigger announcement to the control
// log.
func (d *Deployment) logTrigger(sw uint64, keyCount uint32) {
	if d.store == nil || d.storeDead || d.crashed {
		return
	}
	if d.degraded {
		d.noteDurabilityGap()
		return
	}
	if err := d.store.AppendTrigger(sw, keyCount); err != nil {
		d.durabilityFault(sw, err)
	}
}

// logFinish appends a FinishSubWindow marker, then checkpoints when the
// boundary is a checkpoint boundary. The checkpoint is exported AFTER the
// finish is logged, so ThroughLSN covers it and replay never re-runs an
// assembly the snapshot already reflects.
//
// Boundaries also run the storage hygiene that must not sit on the append
// hot path: cadence-based segment sealing, the bit-rot scrubber (a
// corrupt frame quarantines its segment and forces an off-cadence
// checkpoint, re-covering the quarantined records from live state at zero
// loss), and — while degraded — the heal probe.
func (d *Deployment) logFinish(sw uint64) {
	if d.store == nil || d.storeDead || d.crashed {
		return
	}
	if d.degraded {
		d.noteDurabilityGap()
		d.healDurability(sw)
		return
	}
	if err := d.store.AppendFinish(sw); err != nil {
		d.durabilityFault(sw, err)
		return
	}
	d.store.SealBoundary()
	forceCkpt := false
	if corrupt, err := d.store.Scrub(); err == nil && corrupt > 0 {
		// Bit rot caught while the live state still covers the damaged
		// records: checkpoint now and the quarantined frames cost nothing.
		forceCkpt = true
	}
	every := uint64(d.cfg.CheckpointEvery)
	if every == 0 {
		every = 1
	}
	if (sw+1)%every != 0 && !forceCkpt {
		return
	}
	snap := d.ctrl.ExportState()
	ckptStart := time.Now()
	if err := d.store.Checkpoint(snap); err != nil {
		d.durabilityFault(sw, err)
		return
	}
	d.obs.ring.Record(obs.StageCheckpoint, sw, -1, int64(time.Since(ckptStart)))
	// The standby tails checkpoints: each one overwrites its whole state,
	// keeping it at most one checkpoint interval behind the primary —
	// unless the partition schedule cut the checkpoint channel at this
	// boundary, in which case the standby silently goes stale.
	if d.standby != nil && !d.cfg.PartitionFaults.CkptCut(sw) {
		d.standby.RestoreState(snap)
	}
}

// durabilityFault classifies a store write failure. A dead store (crash
// hook fired, or the store was closed under us) ends durable logging for
// good — that is the pre-existing crash semantics. Anything else is a
// disk fault that survived the store's own retry budget: enter degraded
// mode and keep the telemetry flowing.
func (d *Deployment) durabilityFault(sw uint64, err error) {
	if errors.Is(err, durable.ErrFenced) {
		// A stale-term rejection is the fencing protocol working as
		// designed, not a disk fault: the deposed writer must neither
		// degrade durability nor declare the store dead — the new term
		// holder is writing to it right now.
		return
	}
	if d.storeErr == nil {
		d.storeErr = err
	}
	if errors.Is(err, durable.ErrCrash) || errors.Is(err, durable.ErrClosed) {
		d.storeDead = true
		return
	}
	if !d.degraded {
		d.degraded = true
		d.obs.durDegraded.Set(1)
		d.obs.ring.Record(obs.StageDurabilityDegraded, sw, -1, 1)
	}
	d.noteDurabilityGap()
}

// noteDurabilityGap counts one durable write skipped (or failed) while
// degraded. Gaps are pressure, not damage: the live state is whole, so
// windows stay byte-identical — only a crash inside the degraded stretch
// turns the gap into Missing records.
func (d *Deployment) noteDurabilityGap() {
	d.stats.DurabilityGaps++
	d.obs.durGaps.Inc()
}

// healDurability probes the disk from a degraded boundary: durable.Heal
// seals every segment and cuts a fresh checkpoint on new WAL generations.
// Success re-enters durable mode with the on-disk state fully caught up —
// the degraded stretch needs no replay, the new checkpoint covers it.
func (d *Deployment) healDurability(sw uint64) {
	snap := d.ctrl.ExportState()
	if err := d.store.Heal(snap); err != nil {
		if errors.Is(err, durable.ErrCrash) || errors.Is(err, durable.ErrClosed) {
			d.storeDead = true
		}
		return // still degraded; probe again next boundary
	}
	d.degraded = false
	d.stats.DurabilityHeals++
	d.obs.durDegraded.Set(0)
	d.obs.ring.Record(obs.StageDurabilityDegraded, sw, -1, 0)
	// Re-sync the standby: it missed every checkpoint the degraded
	// stretch skipped (partition cuts apply to the heal checkpoint too).
	if d.standby != nil && !d.cfg.PartitionFaults.CkptCut(sw) {
		d.standby.RestoreState(snap)
	}
}

// DurabilityDegraded reports whether the deployment is currently running
// with durable writes suspended (disk faults exhausted the store's retry
// budget; the heal probe re-enters durable mode at a later boundary).
func (d *Deployment) DurabilityDegraded() bool { return d.degraded }

// recover replays the durable state into a freshly built deployment: the
// checkpoint restores the controller wholesale, then the WAL frames it
// does not cover re-run in their original (LSN) order — re-ingested
// batches, re-announced triggers, re-assembled windows (appended to
// Results exactly where the pre-crash run emitted them) and re-applied
// shed notes. Finally the window manager fast-forwards past every
// finished sub-window so replayed boundaries are not terminated twice.
//
// Damage is charged before replay: every sub-window a quarantined
// segment's LSN gap may span is marked Missing (NoteLost), so the windows
// it feeds assemble Incomplete instead of silently wrong. When recovery
// found damage, a fresh checkpoint is cut immediately — the next
// incarnation must not re-derive the same loss from the same broken
// files.
func (d *Deployment) recover() error {
	snap, recs, err := d.store.Recover()
	if err != nil {
		return fmt.Errorf("omniwindow: %w", err)
	}
	lost := d.store.Lost()
	damaged := len(lost) > 0 || d.store.Quarantined() > 0
	if snap == nil && len(recs) == 0 && !damaged {
		return nil
	}
	if snap != nil {
		d.ctrl.RestoreState(snap)
	}
	for _, lr := range lost {
		for sw := lr.SWLow; sw <= lr.SWHigh; sw++ {
			d.ctrl.NoteLost(sw, 1)
		}
	}
	for _, r := range recs {
		switch r.Type {
		case wire.WALAFRBatch:
			flag := packet.OWAFR
			if r.Retrans {
				flag = packet.OWRetransmit
			}
			d.ctrl.Receive(&packet.Packet{OW: packet.OWHeader{
				Flag: flag, SubWindow: r.SubWindow, AFRs: r.AFRs,
			}})
		case wire.WALTrigger:
			d.ctrl.Receive(&packet.Packet{OW: packet.OWHeader{
				Flag: packet.OWTrigger, SubWindow: r.SubWindow, KeyCount: r.KeyCount,
			}})
		case wire.WALFinish:
			if lf, ok := d.ctrl.LastFinished(); ok && r.SubWindow <= lf {
				continue // the checkpoint already reflects this assembly
			}
			w := d.ctrl.FinishSubWindow(r.SubWindow)
			d.appResults[0] = append(d.appResults[0], w...)
			d.stats.ReplayedWindows += len(w)
		case wire.WALShed:
			d.ctrl.NoteShed(r.SubWindow, int(r.Count))
		}
	}
	d.results = d.appResults[0]
	// The durable record attests sub-windows only up to the last replayed
	// finish. Anything between that and the first live traffic this
	// incarnation sees is un-attestable — a crash inside a degraded
	// stretch leaves exactly such a hole — and is charged Missing at
	// termination (see collect) rather than assembled as provably empty.
	d.unattested = true
	if lf, ok := d.ctrl.LastFinished(); ok {
		d.manager.FastForward(lf + 1)
		d.unattestedFrom = lf + 1
	}
	if damaged {
		// Quarantined files are renamed aside, not replayed again — cut a
		// checkpoint over the recovered (and damage-charged) state so the
		// next incarnation starts from coverage, not from the same holes.
		if err := d.store.Checkpoint(d.ctrl.ExportState()); err != nil {
			d.durabilityFault(0, err)
		}
	}
	// Warm the standby to the recovered state, as if it had tailed a
	// checkpoint taken right now.
	if d.standby != nil {
		d.standby.RestoreState(d.ctrl.ExportState())
	}
	return nil
}

// failover promotes the hot standby after the primary's death is detected
// mid-collection. The standby holds the last checkpoint it tailed — the
// previous boundary — so its only gap is the in-flight sub-window, whose
// switch state is still intact (the reset has not run). The deployment
// re-sends the trigger, and the caller's ordinary Phase-3 NACK loop then
// recovers the whole gap before the region resets. The returned duration
// is the remaining lease time the standby had to wait out before
// promoting (charged to the C&R virtual-time budget).
//
// A failover inside a degraded-durability stretch is the one live path
// where gaps become damage: the standby's last tailed checkpoint predates
// the stretch, and nothing durable covers the boundaries since — those
// sub-windows are charged Missing on the promoted controller, so their
// windows assemble Incomplete. The in-flight sub-window is excluded: its
// switch state is recovered live by the re-sent trigger.
func (d *Deployment) failover(sw uint64) time.Duration {
	if d.degraded && d.standby != nil {
		from := uint64(0)
		if lf, ok := d.standby.LastFinished(); ok {
			from = lf + 1
		}
		for s := from; s < sw; s++ {
			d.standby.NoteLost(s, 1)
		}
	}
	d.failedOver = true
	d.stats.Failovers++
	d.obs.ring.Record(obs.StageFailover, sw, -1, 0)
	wait := time.Duration(d.lease.Remaining(d.now))
	d.lease.Release()
	d.ctrls[0] = d.standby
	d.ctrl = d.standby
	d.standby = nil
	// The promoted standby acquires a fresh fencing term. The crashed
	// primary will never write again, but uniformity matters: every
	// promotion — crash or partition — advances the term, so the WAL's
	// term sequence alone tells the full failover history.
	if d.store != nil && !d.storeDead {
		if next, err := d.store.CASTerm(d.store.Term(), 2); err == nil {
			if d.store.AdoptTerm(next) == nil {
				d.term = next
			}
		}
	}
	// The promoted standby owns fresh memory: the RDMA transport must
	// re-register its region and rebuild the switch-side AddressMAT so
	// hot-key verbs resolve to the new controller's addresses. Verbs
	// applied to the dead primary's region replay into the fresh one
	// through the boundary recovery step that follows.
	if d.rdma != nil {
		d.rdma.Reregister()
	}
	d.sendTrigger(sw)
	return wait
}

// noteRDMAShed charges records the RDMA transport dropped irrecoverably
// (cold-buffer overflow, replay-window eviction, invalidation losses) to
// the live controller's shed accounting and, when durability is on, the
// WAL — so restored state reconciles the same degraded windows.
func (d *Deployment) noteRDMAShed(sw uint64, n int) {
	d.ctrl.NoteShed(sw, n)
	if d.store == nil || d.storeDead || d.crashed {
		return
	}
	if d.degraded {
		d.noteDurabilityGap()
		return
	}
	if err := d.store.AppendShed(sw, uint32(n)); err != nil {
		d.durabilityFault(sw, err)
	}
}

// partitionProbe is the standby's boundary health check under a
// partition schedule: it observes the primary's liveness lease through
// its own (possibly drifted) clock and, once the lease reads expired,
// promotes over the still-live primary behind a fencing term. It runs at
// every boundary — owned or idle — because the lease lapses on virtual
// time, not on traffic. Returns the virtual time charged to the C&R
// budget.
func (d *Deployment) partitionProbe(sw uint64) time.Duration {
	ps := d.cfg.PartitionFaults
	if ps == nil || d.standby == nil || d.lease == nil {
		return 0
	}
	// The standby observes the lease AT the boundary (collectAt), through
	// its own clock: constant drift makes a fast standby see expiry early
	// (a spurious but fencing-safe takeover) and a slow one see it late
	// (delayed promotion).
	if !d.lease.Expired(d.collectAt + ps.Drift()) {
		return 0
	}
	return d.partitionFailover(sw)
}

// partitionFailover promotes the standby over a live-but-partitioned
// primary. Unlike crash failover, the old primary is still running; what
// makes the takeover safe is fencing: the standby wins the term CAS
// first, so every durable write the zombie attempts from then on is
// rejected with ErrFenced, and observing that rejection the old primary
// self-demotes — it stops emitting and parks until re-admission.
//
// Boundaries the standby's checkpoint tailing missed (cut channel,
// degraded stretch) hold records that now live only in the unreachable
// half: they are charged Missing on the promoted controller, so every
// window spanning them assembles Incomplete instead of silently partial.
// The windows ENDING at those boundaries were already emitted by the old
// primary before it lost the term — legitimately, it held the lease then
// — so the promoted controller re-finishes those boundaries and discards
// the duplicate outputs (SuppressedWindows): every (Start, End) window
// has exactly one finalizer across the whole run.
func (d *Deployment) partitionFailover(sw uint64) time.Duration {
	// Win the term first. If the CAS write itself cannot land (dead or
	// faulted disk) there is no fence, and without a fence the takeover
	// is not safe — stay on the old primary and retry next boundary.
	next, err := d.store.CASTerm(d.store.Term(), 2)
	if err != nil {
		return 0
	}

	// The zombie's last writes: the partitioned primary, not yet aware it
	// was deposed, attempts its boundary finish and checkpoint. Both are
	// rejected under its stale term — the rejection is how it learns to
	// self-demote.
	fencedBefore := d.store.FencedWrites()
	_ = d.store.AppendFinish(sw)
	_ = d.store.Checkpoint(d.ctrl.ExportState())
	fenced := d.store.FencedWrites() - fencedBefore
	d.demotedCtrl = d.ctrl
	d.cleanSince = 0
	d.stats.Demotions++
	d.obs.ring.Record(obs.StageFenced, sw, -1, fenced)

	// Charge the un-handed-off boundaries [lastTailed+1, sw): Missing
	// first, then the suppressed re-finish.
	from := uint64(0)
	if lf, ok := d.standby.LastFinished(); ok {
		from = lf + 1
	}
	for s := from; s < sw; s++ {
		d.standby.NoteLost(s, 1)
		w := d.standby.FinishSubWindow(s)
		d.stats.SuppressedWindows += len(w)
	}

	d.failedOver = true
	d.stats.Failovers++
	d.obs.ring.Record(obs.StageFailover, sw, -1, int64(next))
	d.lease.Release()
	d.ctrls[0] = d.standby
	d.ctrl = d.standby
	d.standby = nil
	// The winner adopts the term it CASed: from here on its WAL frames,
	// segments and checkpoints carry it, and the demoted node can never
	// write under the old one again.
	if err := d.store.AdoptTerm(next); err == nil {
		d.term = next
	}
	if d.rdma != nil {
		d.rdma.Reregister()
	}
	// Re-announce the in-flight sub-window: the Phase-3 NACK loop then
	// recovers it from the still-unreset region, exactly as after a crash
	// failover. No lease wait is charged — the standby promotes only
	// after it already observed the lease expired.
	d.sendTrigger(sw)
	return 0
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
	d.obs.ring.Record(obs.StageReadmit, sw, -1, 0)
	d.lease.Renew(d.now)
}

// maintainPartition runs the per-boundary partition bookkeeping: counts
// boundaries touched by an active fault, and — once a demoted node has
// seen enough consecutive clean boundaries — re-admits it as the new
// standby (Config.ReadmitAfter; negative disables re-admission).
func (d *Deployment) maintainPartition(sw uint64) {
	ps := d.cfg.PartitionFaults
	if ps == nil {
		return
	}
	if ps.Any(sw) {
		d.stats.PartitionEvents++
		d.cleanSince = 0
		return
	}
	if d.demotedCtrl == nil || d.cfg.ReadmitAfter < 0 {
		return
	}
	d.cleanSince++
	need := d.cfg.ReadmitAfter
	if need == 0 {
		need = 1
	}
	if d.cleanSince >= need {
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
	ps := d.cfg.PartitionFaults
	if ps.RenewCut(sw) {
		return // the renewal never arrives
	}
	if gray, delay := ps.GrayAt(sw); gray {
		d.lease.RenewDelayed(d.now, delay)
		return
	}
	d.lease.Renew(d.now)
}

// crashIfScheduled halts the deployment at a scheduled crash boundary
// when no standby exists (with one, the crash is handled mid-collection
// by failover instead). The store is closed: a dead process holds no file
// handles, and the torn state left on disk is exactly what recovery must
// cope with.
func (d *Deployment) crashIfScheduled(sw uint64) {
	if d.cfg.Crash == nil || d.crashed || d.standby != nil || d.failedOver {
		return
	}
	if !d.cfg.Crash.At(sw) {
		return
	}
	d.crashed = true
	d.crashedAt = sw
	if d.store != nil {
		d.store.Close()
	}
}
