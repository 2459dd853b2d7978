package omniwindow

import (
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/switchsim"
)

// boundary is one sub-window's collect-and-reset round in flight: what
// collect's phases hand each other, held on collect's stack. DESIGN.md
// ("Boundary pipeline") tabulates what each phase charges and which
// faults act there.
type boundary struct {
	d      *Deployment
	sw     uint64
	region int
	// owned: the region still holds sw's state (Deployment.regionOwner).
	// A stale termination — an idle gap longer than the region count —
	// has nothing to collect, and must not reset the newer owner's region.
	owned bool
	// at is the boundary-anchored time, termination + grace. The standby
	// reads the lease at it, not at d.now, which Finalize and RunFor jump
	// far ahead to flush trailing collections.
	at      int64
	spilled []packet.FlowKey
	afrs    int
	passes  int
	// virtual is the round's modeled C&R time so far.
	virtual time.Duration
	// windows are the windows this boundary completed.
	windows []controller.WindowResult
}

// begin settles what the round works on. The spilled keys leave the map
// owned or not: a sub-window whose region a newer one took over can no
// longer query them, and must not leave them there forever.
func (b *boundary) begin() {
	d := b.d
	d.transport.begin(b.sw)
	b.region = d.manager.Regions().Index(b.sw)
	b.owned = d.regionOwned[b.region] && d.regionOwner[b.region] == b.sw
	b.spilled = d.spilled[b.sw]
	delete(d.spilled, b.sw)
	b.virtual = d.cfg.Grace

	// Crash-restart gap (Deployment.unattested): an idle sub-window the
	// durable record never attested cannot be proven empty — charge it
	// Missing. The first owned sub-window closes the gap: from there on,
	// idle sub-windows really are empty, witnessed live.
	if d.unattested {
		if b.owned {
			d.unattested = false
		} else if b.sw >= d.unattestedFrom {
			d.ctrl.NoteLost(b.sw, 1)
		}
	}
}

// enumerate generates the sub-window's AFRs while the region still holds
// its state: the collection packets recirculate, emitting one AFR per
// pass, until the flowkey array is exhausted (Algorithm 2); then the
// controller injects the keys that overflowed the array (§4.2) and
// re-announces the sub-window, so their sequence numbers are owed too:
// recovery NACKs a lost one, and the finish counts one never recovered.
func (b *boundary) enumerate() {
	if !b.owned {
		return
	}
	d, costs := b.d, &b.d.sw.Costs
	d.engine.BeginCollection(b.sw)
	keyCount := d.engine.Tracker().KeyCount(b.region)
	// Each pass hands its key's records to the transport through the
	// engine's AFR port (deliverRecords) before the Inject returns.
	for i := 0; i < d.cfg.CollectionPackets; i++ {
		b.passes += d.injectSpecial(packet.OWHeader{Flag: packet.OWCollection}).Passes
	}
	b.virtual += costs.RecircTime(d.cfg.CollectionPackets, keyCount)
	for i, k := range b.spilled {
		d.injectSpecial(packet.OWHeader{
			Flag: packet.OWInjectKey, Key: k, Index: uint32(keyCount + i), SubWindow: b.sw,
		})
	}
	b.afrs = (keyCount + len(b.spilled)) * d.engine.AppCount()
	b.virtual += time.Duration(len(b.spilled)) * costs.DPDKInjectPerKey
	// Flush point: the probes next may swap the controller, and recovery
	// reads its delivery state.
	d.transport.flush()
	if len(b.spilled) > 0 {
		d.announce(b.sw)
	}
}

// probeStandby is the standby's boundary health check, run before recover
// so that a promotion's re-announced sub-window is repaired into the
// controller that now serves. A scheduled death of the primary is acted on
// only while the region still holds the sub-window to recover; the
// partition probe also runs on idle boundaries — the lease lapses on
// virtual time, not on traffic (nothing is in flight then: the re-sent
// trigger announces an empty key count).
func (b *boundary) probeStandby() {
	d := b.d
	if b.owned && d.standby && !d.failedOver && d.cfg.plan.crash != nil && d.cfg.plan.crash.At(b.sw) {
		b.virtual += d.failover(b.sw, b.at)
	}
	b.virtual += d.partitionProbe(b.sw, b.at)
}

// recover repairs what was lost on the way (§8), before the reset
// destroys the state it is re-queried from: the controller NACKs the
// gaps, the transport replays them, and bounded retries with exponential
// backoff (charged to the C&R budget) keep an unrecoverable loss from
// stalling the reset forever — the sub-window then finalizes with its
// gaps recorded and its windows Incomplete (account counts it).
func (b *boundary) recover() {
	d, t := b.d, b.d.transport
	t.beginRecovery(b.sw)
	rec := controller.RecoverSubWindow(d.retryPolicy(),
		func() []uint32 { return t.missing(b.sw, b.owned) },
		func(seqs []uint32) error { t.replay(seqs); return nil },
		func(wait time.Duration) { b.virtual += wait },
	)
	d.stats.RecoveryRounds += rec.Rounds
	if rec.Rounds > 0 {
		d.obs.ring.Record(obs.StageRecovered, b.sw, -1, int64(rec.Rounds))
	}
}

// reset zeroes the region in the switch: the parked collection packets are
// reused as clear packets (§4.3), each zeroing one slot of every register
// per pass. The log's write group lands first: from here on the switch
// cannot re-query what it holds.
func (b *boundary) reset() {
	d := b.d
	d.flushLog(b.sw)
	if !b.owned {
		return
	}
	for i := 0; i < d.cfg.CollectionPackets; i++ {
		b.passes += d.injectSpecial(packet.OWHeader{Flag: packet.OWReset}).Passes
	}
	d.stats.RecircPasses += b.passes
	b.virtual += d.sw.Costs.RecircTime(d.cfg.CollectionPackets, d.cfg.Slots)
	d.regionOwned[b.region] = false
}

// drain ends the switch half; what it hands over is logged, and the
// write group lands.
func (b *boundary) drain() {
	b.virtual += b.d.transport.drain(b.sw, b.afrs)
	b.d.flushLog(b.sw)
}

// account charges the round. Its Incomplete verdict is the controller's,
// read once the drain has handed everything over, for both transports: a
// sequence number still missing then is missing for good, whether recover
// could NACK it or not.
func (b *boundary) account() {
	d := b.d
	if b.owned && len(d.ctrl.MissingSeqs(b.sw)) > 0 {
		d.stats.IncompleteSubWindows++
	}
	d.ctr.afrs.Add(int64(b.afrs))
	d.stats.SubWindows++
	d.stats.CollectVirtual += b.virtual
	d.stats.MaxCollectVirtual = max(d.stats.MaxCollectVirtual, b.virtual)
	d.obs.collect.Observe(b.virtual)
	if b.owned {
		d.obs.ring.Record(obs.StageCollected, b.sw, b.region, int64(b.afrs))
	}
}

// finish assembles the sub-window's windows and makes the boundary
// durable: the finish is logged (replay re-runs the assembly at the same
// point in the ingest order) and checkpointed, the lease renewed — and
// then the process dies here if the crash schedule says so, leaving
// exactly the on-disk state a real mid-operation power cut would.
func (b *boundary) finish() {
	d := b.d
	b.windows = d.finishSubWindow(b.sw)
	d.logFinish(b.sw)
	if d.store != nil {
		// Disk retry backoffs and injected slow-IO latency accrued since
		// the last boundary. Deliberately NOT folded into MaxCollectVirtual:
		// the §6 two-region bound is about switch-side region reuse, and a
		// controller-side disk stall overlaps the next sub-window's traffic
		// instead of holding a region hostage.
		d.stats.CollectVirtual += time.Duration(d.store.TakeIOWait())
	}
	d.renewLease(b.sw)
	d.maintainPartition(b.sw)
	d.crashIfScheduled(b.sw)
}

// finishSubWindow assembles sw's windows in the controller and appends
// them to the results, at a live boundary and when WAL replay re-runs one.
// It returns them.
func (d *Deployment) finishSubWindow(sw uint64) []controller.WindowResult {
	w := d.ctrl.FinishSubWindow(sw)
	d.results = append(d.results, w...)
	return w
}

func (b *boundary) windowClosed() {
	if len(b.windows) > 0 {
		b.d.transport.windowClosed()
	}
}

// injectSpecial runs one control packet through the switch, reusing the
// scratch packet: collections run between traffic packets, AFRs leave
// through the engine's port rather than as clones of it, and a control
// packet never leaves on egress.
func (d *Deployment) injectSpecial(h packet.OWHeader) switchsim.Output {
	d.scratch = packet.Packet{OW: h}
	return d.sw.Inject(&d.scratch)
}

// deliverRecords routes one emission's AFRs — a key's records from the
// engine's port, or a retransmit packet's — and their summaries (parallel,
// or empty) toward the controller, first
// pushing them through the configured fault schedule, drawn once per
// call: a drop loses them — the reliability protocol must notice and
// repair — and duplicates arrive back to back, which the controller's
// sequence dedup must suppress. recs and summ are valid only during the
// call: the transport copies what it keeps.
func (d *Deployment) deliverRecords(flag packet.OWFlag, recs []packet.AFR, summ []packet.Summary) {
	copies := 1
	if d.cfg.plan.afrFaults != nil {
		act := d.cfg.plan.afrFaults.Packet()
		if act.Drop {
			return
		}
		copies += act.Duplicates
	}
	for ; copies > 0; copies-- {
		d.transport.deliver(flag, recs, summ)
	}
}

// retryPolicy is the test plan's recovery policy, or the controller's
// default.
func (d *Deployment) retryPolicy() controller.RetryPolicy {
	if p := d.cfg.plan.retry; p != nil {
		return *p
	}
	return controller.DefaultRetryPolicy()
}
