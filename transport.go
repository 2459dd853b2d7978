package omniwindow

import (
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/rdma"
	"omniwindow/internal/wire"
)

// collectTransport is how a boundary's AFRs travel from the switch to the
// controller (§7: as packets, or as RDMA verbs into registered memory).
// The boundary pipeline drives one through these calls in a fixed order
// and never asks which one it holds; the two implementations below are
// the only code that knows.
type collectTransport interface {
	// begin: faults scheduled before sw's collection traffic strike.
	begin(sw uint64)
	// deliver sends one surviving emission's records and their summaries
	// (parallel, or empty) toward the controller, copying them: both are
	// valid only during the call. They may park short of it until the next
	// flush: every reader of controller or store state sits behind one.
	deliver(flag packet.OWFlag, recs []packet.AFR, summ []packet.Summary)
	flush()
	// beginRecovery: faults scheduled between the collection traffic and
	// recovery strike. missing then lists what to NACK for sw (valid until
	// the next call) and replay answers one round of it.
	beginRecovery(sw uint64)
	missing(sw uint64, owned bool) []uint32
	replay(seqs []uint32)
	// drain hands the controller what the transport still holds for sw,
	// charges the controller CPU that receiving the boundary's afrs
	// records cost, and returns the virtual time sending them waited.
	drain(sw uint64, afrs int) time.Duration
	// windowClosed runs after each boundary that completed a window.
	windowClosed()
	// reregister follows a promotion: the new controller owns fresh memory.
	reregister()
}

// newTransport builds the deployment's collection transport.
func newTransport(d *Deployment) collectTransport {
	cfg := &d.cfg
	if !cfg.RDMA {
		batch := packet.OWHeader{AFRs: make([]packet.AFR, 0, afrBatchCap)}
		return &packetPath{d: d, batch: packet.Packet{OW: batch}}
	}
	return &rdmaPath{
		d: d,
		tr: rdma.NewTransport(rdma.TransportConfig{
			Rows:        cfg.AddressMATSize,
			Lanes:       cfg.Plan.Size,
			BufCap:      1 << 18,
			ReplayDepth: cfg.plan.rdmaReplayDepth,
			Faults:      cfg.plan.rdmaFaults,
			// noteRDMAShed reads d.ctrl at charge time, so shed notes
			// follow a failover to the promoted standby.
			OnShed: d.noteRDMAShed,
		}),
		hot:     controller.NewHotTracker(cfg.AddressMATSize, cfg.HotThreshold),
		batch:   make([]packet.AFR, 0, afrBatchCap),
		promote: make([]bool, afrBatchCap),
		routes:  make([]rdma.Route, afrBatchCap),
		parked:  make([]packet.AFR, 0, afrBatchCap),
	}
}

// stageAFRs copies recs into the fixed-capacity delivery batch *b, and
// their summaries summ (parallel, or empty) into *bs, the batch's
// summaries, calling full each time the batch fills; full empties both. A
// batch that takes no summaries passes bs nil.
func stageAFRs(b *[]packet.AFR, bs *[]packet.Summary, recs []packet.AFR, summ []packet.Summary, full func()) {
	for off := 0; off < len(recs); {
		n := copy((*b)[len(*b):cap(*b)], recs[off:])
		if bs != nil {
			*bs = packet.AppendSummaries(*bs, len(*b), packet.SummarySlice(summ, off, off+n), n)
		}
		*b, off = (*b)[:len(*b)+n], off+n
		if len(*b) == cap(*b) {
			full()
		}
	}
}

// afrBatchCap is the delivery batch's fixed capacity: one wire datagram's
// worth of records per WAL append and controller ingest.
const afrBatchCap = wire.MaxAFRsPerDatagram

// packetPath carries AFRs as packets (DPDK RX). Nothing strikes it at a
// boundary and it holds no memory of its own, so those calls are empty.
type packetPath struct {
	d *Deployment
	// batch is the delivery batch: its record buffer has fixed capacity
	// afrBatchCap and is empty between boundaries.
	batch packet.Packet
}

func (p *packetPath) begin(uint64)         {}
func (p *packetPath) beginRecovery(uint64) {}
func (p *packetPath) windowClosed()        {}
func (p *packetPath) reregister()          {}

// deliver copies records into the delivery batch, flushing whenever it
// fills and before the flag changes between OWAFR and OWRetransmit (the
// controller's recovery accounting is per delivered packet).
func (p *packetPath) deliver(flag packet.OWFlag, recs []packet.AFR, summ []packet.Summary) {
	b := &p.batch.OW
	if b.Flag != flag {
		p.flush()
		b.Flag = flag
	}
	stageAFRs(&b.AFRs, &b.Summaries, recs, summ, p.flush)
}

// flush delivers the batched records as one packet: one WAL append, then
// one hand-off to the controller.
func (p *packetPath) flush() {
	b := &p.batch.OW
	if len(b.AFRs) == 0 {
		return
	}
	p.d.logBatch(b.Flag == packet.OWRetransmit, b.AFRs, b.Summaries)
	p.handOff()
	b.AFRs, b.Summaries = b.AFRs[:0], b.Summaries[:0]
}

// handOff is the one way a delivery batch reaches the controller: as the
// packet it is, through Receive, which tells a recovery from a first
// delivery by the batch's flag and charges the O1 receive.
func (p *packetPath) handOff() { p.d.ctrl.Receive(&p.batch) }

// missing is the controller's sequence gaps — none on an unowned boundary:
// a region a newer sub-window took over has nothing left to re-query.
func (p *packetPath) missing(sw uint64, owned bool) []uint32 {
	if !owned {
		return nil
	}
	return p.d.ctrl.MissingSeqs(sw)
}

// replay has the switch re-query the NACKed sequence numbers from the
// still-unreset region and retransmit the records, one wire datagram's
// worth at a time — each chunk through the fault draw, like any AFR
// packet.
func (p *packetPath) replay(seqs []uint32) {
	d := p.d
	recs, summ := d.engine.Retransmit(seqs)
	d.ctr.retransmitted.Add(int64(len(recs)))
	for off := 0; off < len(recs); off += afrBatchCap {
		end := min(len(recs), off+afrBatchCap)
		d.deliverRecords(packet.OWRetransmit, recs[off:end], packet.SummarySlice(summ, off, end))
	}
	p.flush() // MissingSeqs is re-read next
}

func (p *packetPath) drain(_ uint64, afrs int) time.Duration {
	p.d.stats.ControllerCPUVirtual += time.Duration(afrs) * p.d.sw.Costs.DPDKRxPerPacket
	return 0
}

// rdmaPath carries AFRs as RDMA verbs (§7): hot keys as WRITEs into
// per-key rows resolved by the switch-side address MAT, cold keys as
// appends. It owns the fault-tolerant transport (QP state machine, PSN
// replay window) and the key-hotness tracker that drives promotions.
// NACKs are PSN gaps, answered from the replay window instead of
// re-queried from the switch. What the transport cannot carry rides on as
// packet-path records, original sequence numbers intact — the controller's
// dedup makes the hand-off exact (nothing double-counted, nothing lost).
// That includes every record carrying a distinct-count summary: a hot
// key's WRITE lands its attribute alone, so such records never enter the
// transport (nor the hot tracker) and are handed off as delivered.
type rdmaPath struct {
	d   *Deployment
	tr  *rdma.Transport
	hot *controller.HotTracker
	// batch stages delivered records, up to afrBatchCap, for one tracker
	// call and one transport call; promote and routes are those calls'
	// per-record results. batch is empty between boundaries.
	batch   []packet.AFR
	promote []bool
	routes  []rdma.Route
	// parked holds records the transport handed back or never took, up
	// to one delivery batch, and parkedSumm their summaries (parallel, or
	// empty).
	parked     []packet.AFR
	parkedSumm []packet.Summary
}

// begin: an async QP error here makes every send of the round fall back.
func (r *rdmaPath) begin(sw uint64) { r.tr.BeginBoundary(sw) }

func (r *rdmaPath) deliver(_ packet.OWFlag, recs []packet.AFR, summ []packet.Summary) {
	if len(summ) > 0 {
		r.d.ctr.fallbacks.Add(int64(len(recs)))
		stageAFRs(&r.parked, &r.parkedSumm, recs, summ, r.ingestParked)
		return
	}
	stageAFRs(&r.batch, nil, recs, nil, r.send)
}

// send observes the staged records' keys and sends them, each promotion
// applied just before its own record's send, then empties the batch.
func (r *rdmaPath) send() {
	recs, st := r.batch, &r.d.stats
	promote, routes := r.promote[:len(recs)], r.routes[:len(recs)]
	r.hot.ObserveAFRs(recs, promote)
	r.tr.SendBatch(recs, promote, routes)
	for i, route := range routes {
		switch route {
		case rdma.Fallback:
			// The transport could not take the record: QP down, retries
			// exhausted, or the cold buffer overflowed.
			r.d.ctr.fallbacks.Add(1)
			stageAFRs(&r.parked, &r.parkedSumm, recs[i:i+1], nil, r.ingestParked)
		case rdma.Hot:
			st.HotAFRs++
		default:
			st.ColdAFRs++
		}
	}
	r.batch = r.batch[:0]
}

func (r *rdmaPath) flush() {
	r.send()
	r.ingestParked()
}

func (r *rdmaPath) ingestParked() {
	r.ingest(r.parked, r.parkedSumm)
	r.parked, r.parkedSumm = r.parked[:0], r.parkedSumm[:0]
}

// ingest hands RDMA-delivered (or fallen-back) records and their summaries
// (parallel, or empty) to the controller in delivery batches of at most
// afrBatchCap, the packet path's shape, logging each to the WAL first —
// they become durable at controller-ingest time, exactly when the
// controller's state starts reflecting them. They are memory writes, not
// packets: no O1 receive is charged.
func (r *rdmaPath) ingest(recs []packet.AFR, summ []packet.Summary) {
	for off := 0; off < len(recs); off += afrBatchCap {
		end := min(len(recs), off+afrBatchCap)
		s := packet.SummarySlice(summ, off, end)
		r.d.logBatch(false, recs[off:end], s)
		r.d.ctrl.IngestRecords(recs[off:end], s)
	}
}

// beginRecovery: scheduled region invalidations strike and a faulted QP
// attempts recovery.
func (r *rdmaPath) beginRecovery(sw uint64) {
	r.tr.BeginCollect(sw)
	if r.tr.State() == rdma.QPRecovering {
		r.d.obs.ring.Record(obs.StageQPRecovered, sw, -1, 0)
	}
}

// missing is the controller-side PSN-gap scan. A QP still in Error cannot
// replay: its gaps go straight to drain's hand-off. A record lost before
// any verb carried it has no PSN, so it is never NACKed; account still
// counts its sub-window Incomplete.
func (r *rdmaPath) missing(uint64, bool) []uint32 {
	if r.tr.State() == rdma.QPError {
		return nil
	}
	return r.tr.MissingPSNs()
}

func (r *rdmaPath) replay(psns []uint32) { r.tr.Replay(psns) }

// drain first takes the per-key hand-off — what the replay budget could
// not land on the region — then the cold ring plus the hot-row readback,
// zeroing each consumed lane for its next same-lane sub-window. The cold
// ring is ingested here, before anything sends again and overwrites it.
// Hot-row records cost the controller CPU nothing.
func (r *rdmaPath) drain(sw uint64, _ int) time.Duration {
	d, rx := r.d, r.d.sw.Costs.DPDKRxPerPacket
	if fb := r.tr.TakeUnapplied(); len(fb) > 0 {
		d.ctr.fallbacks.Add(int64(len(fb)))
		d.obs.ring.Record(obs.StageRDMAFallback, sw, -1, int64(len(fb)))
		r.ingest(fb, nil)
		d.stats.ControllerCPUVirtual += time.Duration(len(fb)) * rx
	}
	cold, hot := r.tr.Drain(sw)
	r.ingest(cold, nil)
	r.ingest(hot, nil)
	d.stats.ControllerCPUVirtual += time.Duration(len(cold)) * rx
	return r.tr.TakeRetryWait()
}

// windowClosed ages key hotness, demoting keys that stopped recurring.
func (r *rdmaPath) windowClosed() {
	for _, k := range r.hot.Decay() {
		r.tr.Demote(k)
	}
}

// reregister rebuilds the switch-side AddressMAT over a fresh region, so
// hot-key verbs resolve to the new controller's addresses; verbs applied
// to the old region replay into it through the recovery that follows.
func (r *rdmaPath) reregister() { r.tr.Reregister() }
