package omniwindow

import (
	"fmt"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/rdma"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/wire"
)

// deployResources compiles the OmniWindow data-plane program onto the
// simulated switch with per-feature attribution, mirroring the Exp#5
// resource breakdown (Table 2). Sizes come from the configuration; stages
// come from the placement solver, driven by the program's real dependency
// structure: the signal decides the sub-window, the consistency model
// stamps it, the address MAT derives the region offset, flowkey tracking
// and the application state consume it, and AFR generation / reset sit
// behind the tracking structures they enumerate.
func (d *Deployment) deployResources() error {
	t := d.cfg.Tracker
	spec := switchsim.ProgramSpec{
		Registers: []switchsim.RegSpec{
			{Name: "subwindow_num", Feature: "Signal", Entries: 1, Width: 4},
			{Name: "signal_state", Feature: "Signal", Entries: 4096, Width: 8},
		},
		MATs: []switchsim.MATSpec{
			{Name: "signal_gate", Feature: "Signal", VLIWs: 3, Gateways: 2, After: []string{"signal_state"}},
			{Name: "stamp_adopt", Feature: "Consistency model", VLIWs: 2, Gateways: 1,
				After: []string{"subwindow_num"}},
			{Name: "region_offset", Feature: "Address location", SRAMKB: 16, VLIWs: 2,
				After: []string{"stamp_adopt"}},
			{Name: "fk_track_gate", Feature: "Flowkey tracking", SRAMKB: 4, VLIWs: 7, Gateways: 7,
				After: []string{"region_offset"}},
			{Name: "afr_gen", Feature: "AFR generation", VLIWs: 4, Gateways: 3,
				After: []string{"fk_buffer_r0", "fk_buffer_r1"}},
		},
	}
	// Flowkey tracking: fk_buffer plus a k-hash Bloom filter, per region
	// (Algorithm 1). The Bloom rows depend on the tracking gate; the
	// buffers depend on the Bloom verdict.
	for r := 0; r < 2; r++ {
		var bloomNames []string
		for h := 0; h < t.BloomHashes; h++ {
			name := fmt.Sprintf("bloom_r%d_h%d", r, h)
			bloomNames = append(bloomNames, name)
			spec.Registers = append(spec.Registers, switchsim.RegSpec{
				Name: name, Feature: "Flowkey tracking",
				Entries: maxInt(t.BloomBits/64, 1), Width: 8,
				After: []string{"fk_track_gate"},
			})
		}
		spec.Registers = append(spec.Registers, switchsim.RegSpec{
			Name: fmt.Sprintf("fk_buffer_r%d", r), Feature: "Flowkey tracking",
			Entries: maxInt(t.BufferKeys, 1), Width: packet.KeyBytes,
			After: bloomNames,
		})
	}
	// The application's flat register holds both regions concatenated:
	// one SALU regardless of region count (the §6 optimization).
	spec.Registers = append(spec.Registers, switchsim.RegSpec{
		Name: "app_flat", Feature: "App state", Entries: 2 * d.cfg.Slots, Width: 8,
		After: []string{"region_offset"},
	})
	// In-switch reset enumerates the application registers.
	spec.Registers = append(spec.Registers, switchsim.RegSpec{
		Name: "reset_counter", Feature: "In-switch reset", Entries: 1, Width: 4,
	})
	spec.MATs = append(spec.MATs, switchsim.MATSpec{
		Name: "reset_gate", Feature: "In-switch reset", SRAMKB: 28, VLIWs: 5, Gateways: 5,
		After: []string{"reset_counter", "app_flat"},
	})
	if d.cfg.RDMA {
		matKB := (d.cfg.AddressMATSize*24 + 1023) / 1024
		spec.MATs = append(spec.MATs, switchsim.MATSpec{
			Name: "address_mat", Feature: "RDMA opt.", SRAMKB: matKB, VLIWs: 12, Gateways: 8,
			After: []string{"afr_gen"},
		})
		spec.Registers = append(spec.Registers, switchsim.RegSpec{
			Name: "roce_psn", Feature: "RDMA opt.", Entries: 1, Width: 4,
			After: []string{"address_mat"},
		})
		spec.MATs = append(spec.MATs, switchsim.MATSpec{
			Name: "roce_craft", Feature: "RDMA opt.", SRAMKB: 8, VLIWs: 8, Gateways: 5,
			After: []string{"roce_psn"},
		})
	}
	_, err := switchsim.Place(d.sw, spec)
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// installProgram wires the per-packet pipeline logic.
func (d *Deployment) installProgram() {
	d.sw.SetProgram(func(pass *switchsim.Pass) {
		p := pass.Pkt
		if d.engine.HandleSpecial(pass) {
			return
		}
		res := d.manager.OnPacket(p, p.Time)
		if d.decisionHook != nil {
			d.decisionHook(p, res)
		}
		if res.StaleEpoch {
			// Stamped by a rebooted, not-yet-resynced switch: the embedded
			// sub-window is garbage. The packet still forwards (it is user
			// traffic) but is never monitored here.
			d.stats.StaleEpochStamps++
			d.obs.staleEpoch.Inc()
			return
		}
		for _, ended := range res.Terminated {
			trig := p.Clone()
			trig.OW.Flag = packet.OWTrigger
			trig.OW.SubWindow = ended
			trig.OW.KeyCount = uint32(d.engine.Tracker().KeyCount(d.manager.Regions().Index(ended)))
			pass.CloneToController(trig)
		}
		if res.Spike {
			c := p.Clone()
			c.OW.Flag = packet.OWLatencySpike
			pass.CloneToController(c)
			return
		}
		if !d.regionOwned[res.Region] || d.regionOwner[res.Region] < res.Monitor {
			d.regionOwner[res.Region] = res.Monitor
			d.regionOwned[res.Region] = true
		}
		if spillKey, spill := d.engine.Update(res.Region, p); spill {
			c := p.Clone()
			c.OW.Flag = packet.OWSpill
			c.OW.Key = spillKey
			pass.CloneToController(c)
		}
	})
}

// ProcessPacket feeds one traffic packet (in non-decreasing time order)
// through the deployment. Completed windows accumulate in Results. The
// packet is copied before entering the pipeline: the first-hop stamp this
// deployment writes must not leak into the caller's trace (which may be
// replayed through other deployments). The copy is a deployment-owned
// scratch packet, overwritten by the next call — nothing downstream keeps
// the pointer (clones go to the controller, see switchsim.Output).
func (d *Deployment) ProcessPacket(p *packet.Packet) {
	d.process(p, &d.scratch)
}

// ProcessAndForward feeds one packet through the deployment and returns
// the packets leaving on egress — carrying this switch's sub-window stamp,
// ready to be fed into a downstream deployment (the network-wide mode of
// §5: the first hop stamps, later hops adopt). The forwarded packets are
// heap copies the caller may keep; the returned slice itself is the
// switch's egress buffer, valid until this deployment's next packet or
// collection.
func (d *Deployment) ProcessAndForward(p *packet.Packet) []*packet.Packet {
	return d.process(p, new(packet.Packet))
}

// process runs due collections up to p's time, then injects q — the
// pipeline's private copy of p — and routes what the switch emitted.
func (d *Deployment) process(p, q *packet.Packet) []*packet.Packet {
	if d.crashed {
		return nil
	}
	d.now = p.Time
	d.runDueCollections()
	if d.crashed {
		return nil
	}
	*q = *p
	out := d.sw.Inject(q)
	d.stats.Packets++
	d.obs.packets.Inc()
	d.handleSwitchOutput(out)
	return out.Forward
}

// Tick advances virtual time without traffic, firing timeout signals and
// due collections (the periodically generated timeout signals of §5).
func (d *Deployment) Tick(now int64) {
	if d.crashed {
		return
	}
	d.now = now
	d.runDueCollections()
	if d.crashed {
		return
	}
	for _, ended := range d.manager.Tick(now) {
		d.sendTrigger(ended)
		d.onTerminated(ended)
	}
	d.runDueCollections()
}

// sendTrigger delivers the sub-window-terminated announcement the data
// plane would clone to the controller (sub-window number + tracked key
// count, for AFR-loss detection).
func (d *Deployment) sendTrigger(ended uint64) {
	region := d.manager.Regions().Index(ended)
	kc := 0
	if d.regionOwned[region] && d.regionOwner[region] == ended {
		kc = d.engine.Tracker().KeyCount(region)
	}
	trig := &packet.Packet{OW: packet.OWHeader{
		Flag: packet.OWTrigger, SubWindow: ended, KeyCount: uint32(kc),
	}}
	d.logTrigger(ended, uint32(kc))
	for _, c := range d.ctrls {
		c.Receive(trig)
	}
}

// Run processes a whole trace and finalizes the trailing sub-window.
func (d *Deployment) Run(pkts []packet.Packet) []controller.WindowResult {
	for i := range pkts {
		d.ProcessPacket(&pkts[i])
	}
	d.Finalize()
	return d.results
}

// RunFor processes a trace and then advances the clock to duration, so
// that every time-based sub-window within [0, duration) terminates and is
// collected — the natural finish for timeout-signal deployments whose
// trace has a known length.
func (d *Deployment) RunFor(pkts []packet.Packet, duration int64) []controller.WindowResult {
	for i := range pkts {
		d.ProcessPacket(&pkts[i])
	}
	d.Tick(duration)
	d.now += 1 << 40 // move past every grace deadline
	d.runDueCollections()
	return d.results
}

// Finalize terminates the active sub-window and flushes every pending
// collection.
func (d *Deployment) Finalize() {
	if d.crashed {
		return
	}
	ended := d.manager.ForceTerminate()
	d.sendTrigger(ended)
	d.onTerminated(ended)
	d.now += 1 << 40 // move past every grace deadline
	d.runDueCollections()
}

// handleSwitchOutput routes switch-to-controller packets.
func (d *Deployment) handleSwitchOutput(out switchsim.Output) {
	for _, c := range out.ToController {
		switch c.OW.Flag {
		case packet.OWTrigger:
			d.logTrigger(c.OW.SubWindow, c.OW.KeyCount)
			for _, ctrl := range d.ctrls {
				ctrl.Receive(c)
			}
			d.onTerminated(c.OW.SubWindow)
		case packet.OWSpill:
			d.stats.Spills++
			d.obs.spills.Inc()
			d.spilled[c.OW.SubWindow] = append(d.spilled[c.OW.SubWindow], c.OW.Key)
		case packet.OWLatencySpike:
			d.stats.Spikes++
			d.obs.spikes.Inc()
			d.ingestSpike(c)
		case packet.OWAFR:
			d.deliverAFRs(c)
			d.flushAFRs() // nothing later in this call delivers: leave no record parked
		}
	}
}

// ingestSpike merges one latency-spike copy through the controller's
// software path (§5): the stamped sub-window is no longer preserved in any
// data-plane region, so the controller folds the packet's contribution in
// directly. The application's flowkey definition still applies — a packet
// the query's filter would have skipped is skipped here too.
func (d *Deployment) ingestSpike(c *packet.Packet) {
	if d.cfg.KeyOf != nil {
		k, ok := d.cfg.KeyOf(c)
		if !ok {
			return
		}
		c = c.Clone()
		c.Key = k
	}
	for i, ctrl := range d.ctrls {
		attr := uint64(1)
		if d.apps[i].SpikeAttr != nil {
			attr = d.apps[i].SpikeAttr(c)
		}
		if ctrl.IngestSpike(c, attr) && i == 0 {
			d.stats.SpikesMerged++
		}
	}
}

// onTerminated schedules a terminated sub-window's C&R after the grace
// period.
func (d *Deployment) onTerminated(sw uint64) {
	d.pending = append(d.pending, pendingCR{sw: sw, due: d.now + int64(d.cfg.Grace)})
}

// runDueCollections performs C&R for every pending sub-window whose grace
// period has elapsed.
func (d *Deployment) runDueCollections() {
	for !d.crashed && len(d.pending) > 0 && d.pending[0].due <= d.now {
		cr := d.pending[0]
		d.pending = d.pending[1:]
		// The boundary-anchored timestamp: probes that model an observer
		// AT the boundary (the standby's lease check) read this instead of
		// d.now, which test harnesses may have jumped far ahead to flush
		// trailing collections.
		d.collectAt = cr.due
		d.collect(cr.sw)
	}
}

// collect runs the full C&R round for one sub-window: collection-packet
// enumeration (Algorithm 2), controller-injected spilled keys, the
// reliability check, in-switch reset, and controller window assembly.
func (d *Deployment) collect(sw uint64) {
	costs := d.cfg.Costs
	// An async QP error scheduled for this boundary strikes before the
	// collection traffic: every send below then falls back to the packet
	// path mid-sub-window, seamlessly.
	if d.cfg.RDMA {
		d.rdma.BeginBoundary(sw)
	}
	region := d.manager.Regions().Index(sw)
	// A region only holds the state of the newest sub-window that used
	// it. Stale terminations (idle gaps longer than the region count)
	// have nothing to collect — and must not reset a region now owned by
	// a newer sub-window.
	owned := d.regionOwned[region] && d.regionOwner[region] == sw
	// Taken on every collection, owned or not: a sub-window whose region a
	// newer one took over can no longer query its spilled keys, and must
	// not leave them in the map forever.
	spilled := d.spilled[sw]
	delete(d.spilled, sw)

	// Crash-restart gap: when recovery's durable record ended before this
	// sub-window and no traffic for it ever reached this incarnation, it
	// cannot be proven empty — charge it Missing so its windows assemble
	// Incomplete (damage, never silently partial). The first owned
	// sub-window closes the gap: from there on, idle sub-windows really
	// are empty, witnessed live.
	if d.unattested {
		if owned {
			d.unattested = false
		} else if sw >= d.unattestedFrom {
			d.ctrl.NoteLost(sw, 1)
		}
	}

	var afrs int
	virtual := d.cfg.Grace

	if owned {
		d.engine.BeginCollection(sw)
		keyCount := d.engine.Tracker().KeyCount(region)

		// Phase 1 — enumeration: inject the collection packets; each
		// recirculates, emitting one AFR per pass, until the flowkey
		// array is exhausted.
		passes := 0
		for i := 0; i < d.cfg.CollectionPackets; i++ {
			out := d.injectSpecial(packet.OWHeader{Flag: packet.OWCollection})
			passes += out.Passes
			afrs += d.deliverClones(out)
		}
		virtual += costs.RecircTime(d.cfg.CollectionPackets, keyCount)

		// Phase 2 — controller-injected flow keys for the spilled
		// remainder (§4.2), queried while the region still holds state.
		for i, k := range spilled {
			afrs += d.deliverClones(d.injectSpecial(packet.OWHeader{
				Flag: packet.OWInjectKey, Key: k, Index: uint32(keyCount + i), SubWindow: sw,
			}))
		}
		virtual += time.Duration(len(spilled)) * costs.DPDKInjectPerKey
		// Flush point: the probes below may swap the controller, and the
		// Phase-3 loop reads its delivery state.
		d.flushAFRs()

		// Failover probe: the standby declares the primary dead only once
		// its lease lapses (the wait is charged to the C&R budget), then
		// promotes from the checkpoint it tailed at the previous boundary.
		// Everything delivered for THIS sub-window above went to the dead
		// primary and is gone; the re-sent trigger re-announces the key
		// count, and the Phase-3 loop below NACKs the whole gap back from
		// the still-unreset region — at most one sub-window of loss,
		// fully NACK-recoverable.
		if d.standby != nil && !d.failedOver && d.cfg.Crash != nil && d.cfg.Crash.At(sw) {
			virtual += d.failover(sw)
		}

		// Partition probe: the standby's lease observation may declare the
		// still-live primary dead (lost/gray renewals, clock drift) and
		// promote behind a fencing term. Runs before Phase 3 so the NACK
		// loop below recovers this sub-window into the promoted controller.
		virtual += d.partitionProbe(sw)

		// Phase 3 — reliability: recover AFRs lost on the way (§8),
		// before the reset destroys the state they are queried from.
		// The controller NACKs the sequence gaps; the switch re-queries
		// and retransmits; bounded retries with exponential backoff
		// (charged to the C&R virtual-time budget) keep an unrecoverable
		// loss from stalling the reset forever — the sub-window then
		// finalizes with its gaps recorded and its windows Incomplete.
		// The RDMA path runs its own recovery at drain time below: PSN
		// gaps are NACKed into the transport's replay window instead of
		// re-queried from the switch.
		if !d.cfg.RDMA {
			rec := controller.RecoverSubWindow(d.retryPolicy(),
				func() []uint32 { return d.ctrl.MissingSeqs(sw) },
				func(seqs []uint32) error {
					for _, rp := range d.engine.RetransmitPackets(seqs) {
						d.stats.Retransmitted += len(rp.OW.AFRs)
						d.obs.retrans.Add(int64(len(rp.OW.AFRs)))
						d.deliverAFRs(rp)
					}
					d.flushAFRs() // MissingSeqs is re-read next
					return nil
				},
				func(wait time.Duration) { virtual += wait },
			)
			d.stats.RecoveryRounds += rec.Rounds
			if rec.Rounds > 0 {
				d.obs.ring.Record(obs.StageRecovered, sw, -1, int64(rec.Rounds))
			}
			if !rec.Complete && len(rec.Missing) > 0 {
				d.stats.IncompleteSubWindows++
			}
		}

		// Phase 4 — in-switch reset: the parked collection packets are
		// reused as clear packets (§4.3), each zeroing one slot of every
		// register per pass.
		for i := 0; i < d.cfg.CollectionPackets; i++ {
			passes += d.injectSpecial(packet.OWHeader{Flag: packet.OWReset}).Passes
		}
		d.stats.RecircPasses += passes
		virtual += costs.RecircTime(d.cfg.CollectionPackets, d.cfg.Slots)

		d.regionOwned[region] = false
	}

	if !owned {
		// Idle boundaries probe too: the lease lapses on virtual time, not
		// on traffic, so a partition spanning an idle stretch must still
		// promote the standby (nothing is in flight; the re-sent trigger
		// announces an empty key count).
		virtual += d.partitionProbe(sw)
	}

	// RDMA mode: the boundary recovery step. Scheduled region
	// invalidations strike, a faulted QP attempts recovery, the
	// controller-side PSN-gap scan NACKs dropped verbs into the bounded
	// replay loop (the same virtual-time retry/backoff machinery as the
	// packet path's Phase 3), gaps the budget cannot close hand off to
	// the packet path, and the drain delivers the cold buffer plus the
	// hot-row readback — zeroing each consumed lane for its next
	// same-lane sub-window.
	if d.cfg.RDMA {
		d.rdma.BeginCollect(sw)
		if d.rdma.State() == rdma.QPRecovering {
			d.obs.ring.Record(obs.StageQPRecovered, sw, -1, 0)
		}
		if d.rdma.State() != rdma.QPError {
			rec := controller.RecoverSubWindow(d.retryPolicy(),
				d.rdma.MissingPSNs,
				func(psns []uint32) error {
					d.stats.RDMAReplayed += d.rdma.Replay(psns)
					return nil
				},
				func(wait time.Duration) { virtual += wait },
			)
			d.stats.RecoveryRounds += rec.Rounds
			if rec.Rounds > 0 {
				d.obs.ring.Record(obs.StageRecovered, sw, -1, int64(rec.Rounds))
			}
			if !rec.Complete && len(rec.Missing) > 0 {
				d.stats.IncompleteSubWindows++
			}
		}
		// Per-key handoff: whatever the replay budget could not land on
		// the region rides the packet path instead, original sequence
		// numbers intact — the controller's dedup makes the transport
		// switch exact (nothing double-counted, nothing lost).
		if fb := d.rdma.TakeUnapplied(); len(fb) > 0 {
			d.stats.FallbackAFRs += len(fb)
			d.obs.ring.Record(obs.StageRDMAFallback, sw, -1, int64(len(fb)))
			d.rdmaIngest(fb)
			d.stats.ControllerCPUVirtual += time.Duration(len(fb)) * costs.DPDKRxPerPacket
		}
		cold, hotRecs := d.rdma.Drain(sw)
		d.rdmaIngest(cold)
		d.rdmaIngest(hotRecs)
		d.stats.ControllerCPUVirtual += time.Duration(len(cold)) * costs.DPDKRxPerPacket
		virtual += d.rdma.TakeRetryWait()
	} else {
		d.stats.ControllerCPUVirtual += time.Duration(afrs) * costs.DPDKRxPerPacket
	}

	d.stats.AFRs += afrs
	d.stats.SubWindows++
	d.stats.CollectVirtual += virtual
	if virtual > d.stats.MaxCollectVirtual {
		d.stats.MaxCollectVirtual = virtual
	}
	d.obs.afrs.Add(int64(afrs))
	d.obs.collect.Observe(virtual)
	if owned {
		d.obs.ring.Record(obs.StageCollected, sw, region, int64(afrs))
	}

	var windows []controller.WindowResult
	for i, ctrl := range d.ctrls {
		w := ctrl.FinishSubWindow(sw)
		d.appResults[i] = append(d.appResults[i], w...)
		if i == 0 {
			windows = w
		}
	}
	d.results = d.appResults[0]
	// Durability: log the finish (replay re-runs the assembly at the same
	// point in the ingest order), checkpoint if this is a checkpoint
	// boundary, renew the liveness lease — then die here if the crash
	// schedule says so, leaving exactly the on-disk state a real
	// mid-operation power cut would.
	d.logFinish(sw)
	if d.store != nil {
		// Disk retry backoffs and injected slow-IO latency accrued since
		// the last boundary, charged as virtual time to the run's C&R
		// total. Deliberately NOT folded into MaxCollectVirtual: the §6
		// two-region feasibility bound is about switch-side region reuse,
		// and controller-side disk stalls overlap the next sub-window's
		// traffic instead of holding a region hostage.
		d.stats.CollectVirtual += time.Duration(d.store.TakeIOWait())
	}
	d.renewLease(sw)
	d.maintainPartition(sw)
	d.crashIfScheduled(sw)

	// RDMA: age key hotness once per completed window, demoting keys
	// that stopped recurring.
	if d.cfg.RDMA && len(windows) > 0 {
		for _, k := range d.hot.Decay() {
			d.rdma.Demote(k)
		}
	}
}

// injectSpecial runs one control packet through the switch. The packet is
// the deployment's scratch packet, reset per use: collections run between
// traffic packets, the engine copies what it clones to the controller, and
// a control packet never leaves on egress.
func (d *Deployment) injectSpecial(h packet.OWHeader) switchsim.Output {
	d.scratch = packet.Packet{OW: h}
	return d.sw.Inject(&d.scratch)
}

// deliverClones delivers the AFR clones one collection Inject emitted and
// returns their record count.
func (d *Deployment) deliverClones(out switchsim.Output) (afrs int) {
	for _, c := range out.ToController {
		if c.OW.Flag == packet.OWAFR {
			afrs += len(c.OW.AFRs)
			d.deliverAFRs(c)
		}
	}
	return afrs
}

// rdmaIngest hands RDMA-delivered (or fallen-back) records to the
// controller, logging them to the WAL first when durability is on — the
// RDMA path's records become durable at controller-ingest time, exactly
// when the controller's state starts reflecting them.
func (d *Deployment) rdmaIngest(recs []packet.AFR) {
	if len(recs) == 0 {
		return
	}
	d.logBatch(false, recs)
	d.ctrl.IngestAFRs(recs)
}

// retryPolicy resolves the configured reliability knobs against the
// controller defaults. A negative RetryLimit disables recovery.
func (d *Deployment) retryPolicy() controller.RetryPolicy {
	pol := controller.DefaultRetryPolicy()
	switch {
	case d.cfg.RetryLimit < 0:
		pol.MaxRetries = 0
	case d.cfg.RetryLimit > 0:
		pol.MaxRetries = d.cfg.RetryLimit
	}
	if d.cfg.RetryBackoff > 0 {
		pol.Backoff = d.cfg.RetryBackoff
	}
	if d.cfg.RetryMaxBackoff > 0 {
		pol.MaxBackoff = d.cfg.RetryMaxBackoff
	}
	return pol
}

// afrBatchCap is the delivery batch's fixed capacity: one wire datagram's
// worth of records per WAL append and controller ingest.
const afrBatchCap = wire.MaxAFRsPerDatagram

// deliverAFRs routes AFR-bearing packets (first transmissions and
// retransmissions) toward the controller, first pushing them through the
// configured fault schedule, drawn once per packet: a drop loses the
// packet — the reliability protocol must notice and repair — and
// duplicates arrive back to back, which the controller's sequence dedup
// must suppress.
func (d *Deployment) deliverAFRs(c *packet.Packet) {
	if d.testAFRLoss != nil {
		i := d.afrPktCount
		d.afrPktCount++
		if d.testAFRLoss(i) {
			return // injected loss: cloned packets have lowest priority
		}
	}
	copies := 1
	if d.cfg.AFRFaults != nil {
		act := d.cfg.AFRFaults.Packet()
		if act.Drop {
			return
		}
		copies += act.Duplicates
	}
	for ; copies > 0; copies-- {
		d.deliverAFRsOnce(c)
	}
}

// deliverAFRsOnce sends one surviving packet's records toward the
// controller — via the RNIC when RDMA is enabled, via the delivery batch
// (DPDK packet RX) otherwise.
func (d *Deployment) deliverAFRsOnce(c *packet.Packet) {
	if !d.cfg.RDMA {
		d.batchAFRs(c.OW.Flag, c.OW.AFRs)
		return
	}
	for i, r := range c.OW.AFRs {
		if d.hot.Observe(r.Key) {
			d.rdma.Promote(r.Key)
		}
		hot, delivered := d.rdma.Send(r)
		if !delivered {
			// Seamless mid-sub-window fallback: the transport could not
			// take the record (QP down, retries exhausted, or the cold
			// buffer overflowed) — the packet path carries it from here,
			// original sequence number intact, so the controller's dedup
			// keeps the handoff exact.
			d.stats.FallbackAFRs++
			d.batchAFRs(packet.OWAFR, c.OW.AFRs[i:i+1])
			continue
		}
		if hot {
			d.stats.HotAFRs++
		} else {
			d.stats.ColdAFRs++
		}
	}
}

// batchAFRs copies records into the delivery batch, flushing whenever it
// fills and before the flag changes between OWAFR and OWRetransmit (the
// controller's recovery accounting is per delivered packet). Records wait
// in the batch only until the next flush point; every reader of controller
// or store state sits behind one (see flushAFRs' callers).
func (d *Deployment) batchAFRs(flag packet.OWFlag, recs []packet.AFR) {
	b := &d.batch.OW
	if b.Flag != flag {
		d.flushAFRs()
		b.Flag = flag
	}
	for len(recs) > 0 {
		n := copy(b.AFRs[len(b.AFRs):cap(b.AFRs)], recs)
		b.AFRs, recs = b.AFRs[:len(b.AFRs)+n], recs[n:]
		if len(b.AFRs) == cap(b.AFRs) {
			d.flushAFRs()
		}
	}
}

// flushAFRs delivers the batched records as one packet: one WAL append
// (grouped per shard and sub-window), then one controller ingest.
func (d *Deployment) flushAFRs() {
	b := &d.batch.OW
	if len(b.AFRs) == 0 {
		return
	}
	d.logBatch(b.Flag == packet.OWRetransmit, b.AFRs)
	switch {
	case d.cfg.RDMA:
		d.ctrl.IngestAFRs(b.AFRs)
	case len(d.ctrls) == 1:
		d.ctrl.Receive(&d.batch)
	default:
		d.ingestByApp(b.AFRs)
	}
	b.AFRs = b.AFRs[:0]
}

// ingestByApp routes records to their app's controller, batched per app
// so each controller sees one IngestAFRs call per delivered packet
// instead of one per record. The staging slices are deployment-held
// scratch, reused across packets.
func (d *Deployment) ingestByApp(recs []packet.AFR) {
	if d.appParts == nil {
		d.appParts = make([][]packet.AFR, len(d.ctrls))
	}
	for _, r := range recs {
		if int(r.App) < len(d.ctrls) {
			d.appParts[r.App] = append(d.appParts[r.App], r)
		}
	}
	for app, part := range d.appParts {
		if len(part) == 0 {
			continue
		}
		d.ctrls[app].IngestAFRs(part)
		d.appParts[app] = part[:0]
	}
}

// assertConsistent double-checks internal invariants; exposed for tests.
func (d *Deployment) assertConsistent() error {
	if d.stats.MaxCollectVirtual > 0 && d.cfg.SubWindow > 0 &&
		d.stats.MaxCollectVirtual > d.cfg.SubWindow {
		return errCollectTooSlow{d.stats.MaxCollectVirtual, d.cfg.SubWindow}
	}
	return nil
}

type errCollectTooSlow struct {
	got, budget time.Duration
}

func (e errCollectTooSlow) Error() string {
	return "omniwindow: C&R time " + e.got.String() + " exceeds sub-window " + e.budget.String() +
		" — two memory regions are insufficient at this rate (§6)"
}
