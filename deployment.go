package omniwindow

import (
	"fmt"

	"omniwindow/internal/controller"
	"omniwindow/internal/packet"
	"omniwindow/internal/switchsim"
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
				Entries: max(t.BloomBits/64, 1), Width: 8,
				After: []string{"fk_track_gate"},
			})
		}
		spec.Registers = append(spec.Registers, switchsim.RegSpec{
			Name: fmt.Sprintf("fk_buffer_r%d", r), Feature: "Flowkey tracking",
			Entries: max(t.BufferKeys, 1), Width: packet.KeyBytes,
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

// installProgram wires the per-packet pipeline logic.
func (d *Deployment) installProgram() {
	d.sw.SetProgram(func(pass *switchsim.Pass) {
		p := pass.Pkt
		if d.engine.HandleSpecial(pass) {
			return
		}
		res := d.manager.OnPacket(p, p.Time)
		// The in-band trigger: announced here, before this packet's own
		// update below may hand an ended sub-window's region to a newer one.
		for _, ended := range res.Terminated {
			d.terminated(ended)
		}
		// What the controller is owed leaves the pass as records, as AFRs
		// leave through the engine's port: a spike's merge, a spilled key.
		if res.Spike {
			d.spikes++
			d.ingestSpike(p)
			return
		}
		if !d.regionOwned[res.Region] || d.regionOwner[res.Region] < res.Monitor {
			d.regionOwner[res.Region] = res.Monitor
			d.regionOwned[res.Region] = true
		}
		if spillKey, spill := d.engine.Update(res.Region, p); spill {
			d.spills++
			d.spilled[p.OW.SubWindow] = append(d.spilled[p.OW.SubWindow], spillKey)
		}
	})
}

// ProcessPacket feeds one traffic packet (in non-decreasing time order)
// through the deployment. Completed windows accumulate in Results. The
// packet is copied before entering the pipeline: the first-hop stamp this
// deployment writes must not leak into the caller's trace (which may be
// replayed through other deployments). The copy is a deployment-owned
// scratch packet, overwritten by the next call — nothing downstream keeps
// the pointer (the controller is handed records, never the packet).
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
// pipeline's private copy of p — and returns what left on egress.
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
	d.packets++
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
		d.terminated(ended)
	}
	d.runDueCollections()
}

// announce is the one path a sub-window's count of owed AFRs takes to the
// controller half: the trigger the data plane clones to the controller,
// carrying the sub-window's number and its key count — the only thing that
// tells the controller how many AFRs the sub-window owes (§4.2, §8) — is
// logged, then received by the controller. The count is the
// tracked keys plus the spilled keys its collection has injected, so a
// termination announces the first and the enumerate phase re-announces the
// sum (the controller keeps the max). It is read under the
// region-ownership rule: a region holds one sub-window's keys, and any
// other sub-window that maps to it — the empty ones of an idle gap, while
// an older one still waits there for its collection — owes none of them.
func (d *Deployment) announce(ended uint64) {
	trig := packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: ended}}
	if region := d.manager.Regions().Index(ended); d.regionOwned[region] && d.regionOwner[region] == ended {
		trig.OW.KeyCount = uint32(d.engine.Tracker().KeyCount(region) + d.engine.InjectedKeys(ended))
	}
	d.logTrigger(ended, trig.OW.KeyCount)
	d.ctrl.Receive(&trig)
}

// terminated announces an ended sub-window and schedules its C&R after the
// grace period.
func (d *Deployment) terminated(ended uint64) {
	d.announce(ended)
	d.pending = append(d.pending, pendingCR{sw: ended, due: d.now + int64(d.cfg.Grace)})
}

// Run processes a whole trace and finalizes the trailing sub-window.
func (d *Deployment) Run(pkts []packet.Packet) []controller.WindowResult {
	for i := range pkts {
		d.ProcessPacket(&pkts[i])
	}
	d.Finalize()
	return d.Results()
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
	d.flushCollections()
	return d.Results()
}

// Finalize terminates the active sub-window and flushes every pending
// collection.
func (d *Deployment) Finalize() {
	if d.crashed {
		return
	}
	d.terminated(d.manager.ForceTerminate())
	d.flushCollections()
}

// flushCollections runs every pending collection to completion by moving
// the clock past every grace deadline.
func (d *Deployment) flushCollections() {
	d.now += 1 << 40
	d.runDueCollections()
}

// ingestSpike merges one latency-spike packet through the controller's
// software path (§5): the stamped sub-window is no longer preserved in any
// data-plane region, so the controller folds the packet in directly, one
// count per copy, as a record. The application's flowkey definition still
// applies — a packet the query's filter would have skipped is skipped here
// too; the WAL logs each copy the controller merged.
func (d *Deployment) ingestSpike(p *packet.Packet) {
	rec := packet.AFR{Key: p.Key, SubWindow: p.OW.SubWindow, Seq: p.Seq, Attr: 1}
	if d.cfg.KeyOf != nil {
		k, ok := d.cfg.KeyOf(p)
		if !ok {
			return
		}
		rec.Key = k
	}
	if d.ctrl.IngestSpike(rec) {
		d.stats.SpikesMerged++
		d.durableWrite(rec.SubWindow, func() error { return d.store.AppendSpike(rec.SubWindow, rec.Key, rec.Seq, 1) })
	}
}

// runDueCollections performs C&R for every pending sub-window whose grace
// period has elapsed.
func (d *Deployment) runDueCollections() {
	for !d.crashed && len(d.pending) > 0 && d.pending[0].due <= d.now {
		cr := d.pending[0]
		d.pending = d.pending[1:]
		d.collect(cr.sw, cr.due)
	}
}

// collect runs the full C&R round for one sub-window — the paper's four
// steps on a sealed region (§4.2 enumerate, §8 recover, §4.3 reset, §7
// hand the AFRs to the controller), then the controller's window assembly
// — as a fixed sequence of phases over one boundary value (boundary.go).
// Phases no-op where the deployment has no standby or no store; nothing
// joins or leaves the sequence at run time. begin through drain are the
// switch half: they touch the region and must finish before it is reused.
// The rest is the controller half, which reads only what drain handed
// over and its own state.
func (d *Deployment) collect(sw uint64, at int64) {
	d.publish()
	b := boundary{d: d, sw: sw, at: at}
	b.begin()
	b.enumerate()
	b.probeStandby()
	b.recover()
	b.reset()
	b.drain()
	b.account()
	b.finish()
	b.windowClosed()
}

// assertConsistent double-checks internal invariants; exposed for tests.
func (d *Deployment) assertConsistent() error {
	if worst := d.stats.MaxCollectVirtual; d.cfg.SubWindow > 0 && worst >= d.cfg.SubWindow {
		return fmt.Errorf("omniwindow: C&R time %v does not fit strictly inside sub-window %v — two memory regions are insufficient at this rate (§6)",
			worst, d.cfg.SubWindow)
	}
	return nil
}
