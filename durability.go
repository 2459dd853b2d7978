package omniwindow

import (
	"errors"
	"fmt"
	"time"

	"omniwindow/internal/durable"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// This file wires the deployment into internal/durable: WAL appends on
// every controller-bound delivery and merged spike, a checkpoint manifest
// at every sub-window boundary, and recovery from the log: at a crash
// restart, and at a hot-standby promotion (standby.go), which rebuilds its
// controller the same way.
//
// Disk faults never stop telemetry. When the store's own retry budget
// cannot land a write (persistent EIO, a full disk), the deployment flips
// to DEGRADED durability: windows keep flowing byte-identical to the
// healthy run, while skipped checkpoint/WAL writes are counted as
// DurabilityGaps — pressure, not damage, because the live state is still
// whole. Every boundary while degraded probes the disk (healDurability);
// the first success re-enters durable mode. Damage only appears if a
// crash or failover lands inside a degraded stretch: the un-replayable
// sub-windows are then charged as Missing (NoteLost), so their windows
// assemble Incomplete — explicitly, never silently wrong.

// openDurability opens the checkpoint/WAL store and, when configured, arms
// the hot standby.
func (d *Deployment) openDurability() error {
	cfg := &d.cfg
	store, err := durable.OpenStore(cfg.CheckpointDir, 0, cfg.plan.durable)
	if err != nil {
		return fmt.Errorf("omniwindow: %w", err)
	}
	d.store = store
	// The opener adopts the persisted term (the store loads the term file,
	// or rebuilds authority from segment headers). The term advances only
	// when a standby takes over, never on a plain restart, so the WAL's
	// term sequence reads as the exact failover history.
	d.term = store.Term()
	if cfg.Standby {
		d.openStandby()
	}
	return nil
}

// durableWrite is the one guard in front of every WAL write: nothing is
// written without a live store; while durability is degraded the write is
// skipped and counted as a gap; a write that fails is classified by
// durabilityFault. It reports whether the write landed.
func (d *Deployment) durableWrite(sw uint64, write func() error) bool {
	if d.store == nil || d.storeDead || d.crashed {
		return false
	}
	if d.degraded {
		d.noteDurabilityGap()
		return false
	}
	if err := write(); err != nil {
		d.durabilityFault(sw, err)
		return false
	}
	return true
}

// record is the deployment's one live path into the controller: rec is
// logged, then applied. Replay (replayLog) applies the logged records
// through the same Controller.Apply, so a restart folds exactly what the
// live run did. A record the log could not take (no store, degraded, a
// failed write) is applied all the same: disk faults never stop
// telemetry.
func (d *Deployment) record(rec *wire.WALRecord) {
	d.durableWrite(rec.SubWindow, func() error { return d.store.Append(rec) })
	d.ctrl.Apply(rec)
}

// recordBatch records one delivery batch and its summaries (parallel, or
// empty): one record per run of equal sub-windows, each over its
// sub-slice of the batch, so a boundary logs about one frame per batch,
// not one per AFR. retrans marks records that answer a NACK. The frames
// collect in the store's write group, which lands in one write per 64 KiB
// (flushLog): a failed append, or a failed group write it set off, is
// charged to the frame's sub-window, and a frame skipped while degraded
// is one gap.
func (d *Deployment) recordBatch(retrans bool, recs []packet.AFR, summ []packet.Summary) {
	for i, j := 0, 0; i < len(recs); i = j {
		sw := recs[i].SubWindow
		for j = i + 1; j < len(recs) && recs[j].SubWindow == sw; j++ {
		}
		d.record(&wire.WALRecord{Type: wire.WALAFRBatch, SubWindow: sw, Retrans: retrans,
			AFRs: recs[i:j], Summaries: packet.SummarySlice(summ, i, j)})
	}
}

// flushLog writes the store's write group at a boundary: before the reset
// destroys the region the group's records could still be re-queried from,
// and after the drain. While degraded the group is empty, and no gap is
// counted for it.
func (d *Deployment) flushLog(sw uint64) {
	if !d.degraded {
		d.durableWrite(sw, func() error { return d.store.Flush() })
	}
}

// logFinish appends a FinishSubWindow marker, then checkpoints: every
// boundary whose finish lands is a checkpoint boundary, so the log never
// holds more than the one boundary in flight. The checkpoint is exported
// AFTER the finish is logged, so ThroughLSN covers it and replay never
// re-runs an assembly the checkpoint already reflects. Boundaries also run
// the storage hygiene that must not sit on the append hot path: the
// bit-rot scrubber and — while degraded — the heal probe.
func (d *Deployment) logFinish(sw uint64) {
	healing := d.degraded // a finish that degrades only now is probed next boundary
	if !d.durableWrite(sw, func() error { return d.store.AppendFinish(sw) }) {
		if healing && !d.storeDead {
			d.healDurability(sw)
		}
		return
	}
	// Bit rot caught while the live state still covers the damaged records:
	// the corrupt file is quarantined, and the checkpoint below re-covers
	// its records at zero loss.
	d.store.Scrub()
	d.checkpoint(sw)
}

// checkpoint commits a cut carrying the columns the store must re-log
// (CutFrom; usually none). The ring's checkpoint value times the export
// and the commit together.
func (d *Deployment) checkpoint(sw uint64) {
	ckptStart := time.Now()
	if err := d.store.Checkpoint(d.ctrl.ExportCut(d.store.CutFrom())); err != nil {
		d.durabilityFault(sw, err)
		return
	}
	d.obs.ring.Record(obs.StageCheckpoint, sw, -1, int64(time.Since(ckptStart)))
}

// durabilityFault classifies a store write failure. A dead store (crash
// hook fired, or the store was closed under us) ends durable logging for
// good. Anything else is a disk fault that survived the store's own retry
// budget: enter degraded mode and keep the telemetry flowing.
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

// noteDurabilityGap counts one durable write skipped or failed while degraded.
func (d *Deployment) noteDurabilityGap() { d.ctr.durabilityGaps.Add(1) }

// healDurability probes the disk from a degraded boundary: durable.Heal
// checkpoints a full cut, every live column re-logged on a new generation.
// Success re-enters durable mode with the on-disk state fully caught up —
// the degraded stretch needs no replay, the new checkpoint covers it.
func (d *Deployment) healDurability(sw uint64) {
	if err := d.store.Heal(d.ctrl.ExportState()); err != nil {
		if errors.Is(err, durable.ErrCrash) || errors.Is(err, durable.ErrClosed) {
			d.storeDead = true
		}
		return // still degraded; probe again next boundary
	}
	d.degraded = false
	d.stats.DurabilityHeals++
	d.obs.durDegraded.Set(0)
	d.obs.ring.Record(obs.StageDurabilityDegraded, sw, -1, 0)
}

// recover replays the durable state into a freshly built deployment
// (replayLog), its replayed finishes re-emitting their windows. Finally
// the window manager fast-forwards past every finished sub-window so
// replayed boundaries are not terminated twice.
func (d *Deployment) recover() error {
	snap, recs, err := d.store.Recover()
	if err != nil {
		return fmt.Errorf("omniwindow: %w", err)
	}
	damaged := len(d.store.Lost()) > 0 || d.store.Quarantined() > 0
	if snap == nil && len(recs) == 0 && !damaged {
		return nil
	}
	d.replayLog(snap, recs, func(sw uint64) { d.stats.ReplayedWindows += len(d.finishSubWindow(sw)) })
	// The durable record attests sub-windows only up to the last replayed
	// finish: what lies between it and this incarnation's first live
	// traffic is charged Missing at termination (see Deployment.unattested).
	d.unattested = true
	if lf, ok := d.ctrl.LastFinished(); ok {
		d.manager.FastForward(lf + 1)
		d.unattestedFrom = lf + 1
	}
	if damaged {
		// Quarantined files are renamed aside, not replayed again — cut a
		// full checkpoint over the recovered (and damage-charged) state so
		// the next incarnation starts from coverage, not from the same
		// holes.
		if err := d.store.Checkpoint(d.ctrl.ExportState()); err != nil {
			d.durabilityFault(0, err)
		}
	}
	return nil
}

// replayLog rebuilds the serving controller, freshly built, from what
// Store.Recover read: the checkpoint (its manifest, each live column
// folded from the log) restores it; then damage is charged — every
// sub-window a quarantined segment's LSN gap may span, and every live
// column a quarantined segment may have held part of, is marked Missing
// (NoteLost), so the windows it feeds assemble Incomplete instead of
// silently wrong; then the WAL frames the checkpoint does not cover are
// applied in their original (LSN) order, as the live run applied them
// (record). Each finish not yet reflected goes to finish, which
// re-assembles the sub-window's windows.
func (d *Deployment) replayLog(snap *wire.Snapshot, recs []*wire.WALRecord, finish func(sw uint64)) {
	if snap != nil {
		d.ctrl.RestoreState(snap)
	}
	for _, lr := range d.store.Lost() {
		for sw := lr.SWLow; sw <= lr.SWHigh; sw++ {
			d.ctrl.NoteLost(sw, 1)
		}
	}
	for _, r := range recs {
		if r.Type != wire.WALFinish {
			d.ctrl.Apply(r)
		} else if lf, ok := d.ctrl.LastFinished(); !ok || r.SubWindow > lf {
			finish(r.SubWindow) // else the checkpoint already reflects this assembly
		}
	}
}

// noteRDMAShed records the records the RDMA transport dropped
// irrecoverably (cold-buffer overflow, replay-window eviction,
// invalidation losses): logged, then charged to the live controller's
// shed accounting, so restored state reconciles the same degraded windows.
func (d *Deployment) noteRDMAShed(sw uint64, n int) {
	d.record(&wire.WALRecord{Type: wire.WALShed, SubWindow: sw, Count: uint32(n)})
}

// crashIfScheduled halts the deployment at a scheduled crash boundary
// when no standby exists (with one, the crash is handled mid-collection
// by failover instead). The store is closed: a dead process holds no file
// handles, and the torn state left on disk is exactly what recovery must
// cope with.
func (d *Deployment) crashIfScheduled(sw uint64) {
	if d.cfg.plan.crash == nil || d.crashed || d.standby || d.failedOver || !d.cfg.plan.crash.At(sw) {
		return
	}
	d.crashed = true
	d.crashedAt = sw
	if d.store != nil {
		d.store.Close()
	}
}
